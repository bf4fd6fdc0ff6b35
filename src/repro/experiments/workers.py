"""Forked worker pool for the experiment runner.

The runner's process-backed dispatch path (``workers=N``, or any grid
with a cell deadline).  Each slot is one forked process plus a duplex
pipe carrying one in-flight ``(index, spec)``; workers run cells with
:func:`~repro.experiments.runner.execute_spec` and send back metrics.
Results are byte-identical to inline execution because cells are pure
functions of their spec and the caller places results by spec index.

* **Crashes.**  A dead worker (segfault, ``os._exit``, kill -9) shows
  as EOF on its pipe: its cell fails as ``worker crashed (exit code
  N)``, and a fresh worker takes the slot.
* **Deadlines.**  A cell past ``timeout_s`` has its worker killed and
  fails as ``timed out after Ns``.
* **Orphans.**  An idle worker exits once its parent changes.

Each cell gets one attempt; a re-run against the run cache executes the
failed cells again.  A SIGSTOPped or wedged worker blocks a grid
without a deadline, as such a cell blocks an inline run.  This module
is on the DET002 wall-clock allowlist: cell deadlines are a real-time
concept.
"""

from __future__ import annotations

import math
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.experiments.runner import (
    RunResult,
    RunSpec,
    _failed_result,
    execute_spec,
)

#: How often an idle worker checks that its supervisor is alive (s).
ORPHAN_POLL_S = 0.5

#: Environment variable for deterministic fault injection in smoke
#: tests: ``kill-one`` SIGKILLs the first worker handed a cell after
#: the first result, and exactly that cell fails as crashed.
CHAOS_ENV = "REPRO_WORKER_CHAOS"


def _worker_main(conn) -> None:
    """Loop: receive ``(index, spec)``, reply ``(error, RunResult)``.
    Later workers hold copies of this pipe's supervisor end, so a dead
    supervisor never shows as EOF: watch the parent pid instead.
    """
    supervisor_pid = os.getppid()
    while True:
        try:
            while not conn.poll(ORPHAN_POLL_S):
                if os.getppid() != supervisor_pid:
                    os._exit(2)
            _, spec = conn.recv()
            try:
                reply = (None, execute_spec(spec))
            except BaseException as exc:
                reply = (f"{type(exc).__name__}: {exc}", None)
            conn.send(reply)
        except (EOFError, OSError):
            return


@dataclass
class WorkerStats:
    """Worker-pool telemetry for one grid (rides on GridResult)."""

    spawned: int = 0
    crashed: int = 0

    def merge(self, other: "WorkerStats") -> "WorkerStats":
        self.spawned += other.spawned
        self.crashed += other.crashed
        return self

    def line(self) -> str:
        parts = [f"{self.spawned} spawned"]
        if self.crashed:
            parts.append(f"{self.crashed} crashed")
        return "workers: " + ", ".join(parts)


@dataclass
class _Slot:
    """Supervisor-side handle for one live worker process."""

    proc: Any
    conn: Any
    #: ``(spec index, deadline)`` while busy.
    held: Optional[Tuple[int, float]] = None


def run_persistent(specs: List[RunSpec], misses: List[int], *,
                   workers: int,
                   on_result: Callable[[int, RunResult], None],
                   timeout_s: Optional[float] = None) -> WorkerStats:
    """Execute ``specs[misses]`` on a pool of forked workers.

    Calls ``on_result(index, result)`` exactly once per miss, in
    completion order, and returns the pool's :class:`WorkerStats`.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context()
    target = max(1, min(workers, len(misses)))
    chaos = os.environ.get(CHAOS_ENV, "") == "kill-one"
    stats = WorkerStats()
    pending = deque(misses)
    left = len(misses)
    pool: List[_Slot] = []

    def settle(index: int, result: RunResult) -> None:
        nonlocal left
        on_result(index, result)
        left -= 1

    def spawn() -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=_worker_main, args=(child_conn,),
                           daemon=True)
        with child_conn:  # the worker's end lives on only in the worker
            proc.start()
        pool.append(_Slot(proc=proc, conn=parent_conn))
        stats.spawned += 1

    def retire(slot: _Slot) -> None:
        pool.remove(slot)
        slot.conn.close()
        slot.proc.kill()
        slot.proc.join()

    def lost(slot: _Slot, reason: Optional[str] = None) -> None:
        """A worker died or overran its deadline: reap it and fail the
        cell it held."""
        retire(slot)
        stats.crashed += 1
        if slot.held is not None:
            index = slot.held[0]
            settle(index, _failed_result(specs[index], reason or
                   f"worker crashed (exit code {slot.proc.exitcode})"))

    try:
        while left:
            while pending and len(pool) < min(target, left):
                try:
                    spawn()
                except OSError as exc:
                    while pending:
                        index = pending.popleft()
                        settle(index, _failed_result(
                            specs[index], f"worker spawn failed: {exc}"))

            now = time.monotonic()
            for slot in [s for s in pool if s.held is None]:
                if not pending:
                    break
                index = pending.popleft()
                try:
                    slot.conn.send((index, specs[index]))
                except (OSError, ValueError):
                    # Died while idle: the cell is not charged, and the
                    # wait below reaps the worker on its EOF.
                    pending.appendleft(index)
                    continue
                slot.held = (index, math.inf if timeout_s is None
                             else now + timeout_s)
                if chaos and left < len(misses):
                    # Reaped at once: a fast cell could otherwise reply
                    # before the signal lands, and nothing would fail.
                    chaos = False
                    os.kill(slot.proc.pid, signal.SIGKILL)
                    lost(slot)
            if not left:
                break

            soonest = min([s.held[1] for s in pool if s.held is not None],
                          default=math.inf)
            wait_s = None if soonest == math.inf else max(0.0, soonest - now)
            by_conn = {s.conn: s for s in pool}
            for conn in wait(list(by_conn), wait_s):
                slot = by_conn[conn]
                try:
                    error, result = conn.recv()
                except (EOFError, OSError):
                    lost(slot)
                    continue
                index = slot.held[0]
                slot.held = None
                settle(index, result if error is None
                       else _failed_result(specs[index], error))

            now = time.monotonic()
            for slot in [s for s in pool
                         if s.held is not None and s.held[1] <= now]:
                lost(slot, f"timed out after {timeout_s:g}s")
    finally:
        for slot in list(pool):
            retire(slot)
    return stats


__all__ = ["CHAOS_ENV", "WorkerStats", "run_persistent"]
