"""Host-speed reference: a fixed slice of pure-Python work, timed.

The benchmark runs on shared hosts whose speed drifts by 20-30 % over
minutes, in CPU time as well as wall time (a busy neighbour on the same
physical core, frequency changes).  A run cannot average that away.  So
every session is preceded, in the same thread, by one slice of this
reference work, and the session's CPU time is divided by the slice's:
the ratio stays put while both slow down together.  Multiplying by
:data:`NOMINAL_S` turns it back into seconds on a host where one slice
takes exactly that long.

The reference is a small discrete-event loop -- a heap of timed
callbacks, slotted objects, dict and list churn -- whose every event
also reads a node at random from a pool of some megabytes, larger than
a core's private cache: so it leans on the interpreter and the memory
the way the simulator does.  With a pool that fits in cache the slices
slowed down about twice as much as the sessions on a busy host.  The
reference imports nothing from the program, so no change to the program
moves it.

Set-up work -- starting an interpreter, importing, hashing files -- does
not slow down in step with the slice: over the same minutes the slice
swung by half while set-up moved by a tenth.  So set-up has a reference
of its own, :func:`launch_s`: a fresh interpreter that imports a fixed
set of standard-library modules and hashes a fixed buffer.
"""

from __future__ import annotations

import functools
import gc
import heapq
import random
import resource
import subprocess
import sys
import time
from typing import List, Tuple

#: CPU seconds of one :func:`slice_s` on the nominal host.
NOMINAL_S = 0.0035
#: CPU seconds of one :func:`launch_s` on the nominal host.
NOMINAL_LAUNCH_S = 0.125
#: The program :func:`launch_s` runs in a fresh interpreter.
_LAUNCH = (
    "import argparse, asyncio, dataclasses, decimal, email.message, "
    "hashlib, http.client, json, multiprocessing, unittest, "
    "xml.etree.ElementTree\n"
    "digest = hashlib.sha256()\n"
    "for index in range(2000):\n"
    "    digest.update(str(index).encode() * 200)\n"
)
#: Senders per slice and bytes each one moves.
_SENDERS = 8
_VOLUME = 30_000
#: Nodes in the pool the events read from (about 5 MB).
_POOL_SIZE = 60_000


class _Node:
    __slots__ = ("weight", "peer")

    def __init__(self, weight: int) -> None:
        self.weight = weight
        self.peer = None


@functools.lru_cache(maxsize=1)
def _pool() -> List[_Node]:
    """The node pool, shuffled so that neighbours in the list lie apart
    in memory; built once per process, outside any timed slice."""
    nodes = [_Node(index & 0xFF) for index in range(_POOL_SIZE)]
    random.Random(_POOL_SIZE).shuffle(nodes)
    for node, peer in zip(nodes, nodes[1:]):
        node.peer = peer
    return nodes


class _Sender:
    __slots__ = ("loop", "nodes", "seq", "acked", "inflight", "log")

    def __init__(self, loop: "_Loop", nodes: List[_Node]) -> None:
        self.loop = loop
        self.nodes = nodes
        self.seq = 0
        self.acked = 0
        self.inflight: dict = {}
        self.log: list = []

    def send(self, size: int) -> None:
        self.seq += size
        self.inflight[self.seq] = size
        self.loop.schedule(0.01 + (self.seq % 7) * 0.001, self.on_ack,
                           self.seq)

    def on_ack(self, seq: int) -> None:
        size = self.inflight.pop(seq)
        node = self.nodes[(seq * 2_654_435_761) % _POOL_SIZE]
        self.acked += size + (node.weight & node.peer.weight & 1)
        self.log.append((seq, size))
        if len(self.log) > 32:
            del self.log[:16]
        if self.acked < _VOLUME:
            self.send(size)


class _Loop:
    __slots__ = ("now", "heap", "count")

    def __init__(self) -> None:
        self.now = 0.0
        self.heap: list = []
        self.count = 0

    def schedule(self, delay: float, callback, *args) -> None:
        self.count += 1
        heapq.heappush(self.heap, (self.now + delay, self.count, callback,
                                   args))

    def run(self) -> int:
        heap = self.heap
        while heap:
            self.now, _, callback, args = heapq.heappop(heap)
            callback(*args)
        return self.count


def reference_work() -> int:
    """One slice of reference work; returns its (fixed) event count."""
    nodes = _pool()
    loop = _Loop()
    for index in range(_SENDERS):
        _Sender(loop, nodes).send(100 + index)
    return loop.run()


def slice_s() -> float:
    """Thread CPU seconds one slice of reference work takes right now.

    The cyclic collector is off meanwhile: a collection would scan the
    program's heap, and the slice must not depend on the program.  The
    slice leaves no cycles behind.
    """
    _pool()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        reference_work()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def child_cpu_s(command: List[str], timeout: float = 120.0
                ) -> Tuple[float, subprocess.CompletedProcess]:
    """Run ``command`` to its end; return its CPU seconds (user and
    system, with those of the children it reaped) and the process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=timeout)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime
            + after.ru_stime - before.ru_stime), proc


def launch_s() -> float:
    """CPU seconds one fresh reference interpreter takes right now."""
    cpu, proc = child_cpu_s([sys.executable, "-c", _LAUNCH])
    if proc.returncode != 0:
        raise RuntimeError(f"reference interpreter failed: {proc.stderr}")
    return cpu
