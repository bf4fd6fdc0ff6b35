"""Multiplexing schedulers for the server's shared TCP stream.

The scheduler decides, whenever the TCP connection has room, which
stream's next frame to enqueue.  The paper's multiplexing (Fig. 3) is
the round-robin policy; FIFO (finish one object before starting the
next) is the HTTP/1.1-like ablation; the weighted policy honours the
client's priority tree and backs the paper's future-work defense of
per-load priority shuffling.

``pick(ready, eligible)`` gets ``ready``, the ascending ids of every
stream with a queued frame (the server's own list: read it, never keep
or mutate it), and ``eligible(sid)``, True when that stream's head frame
may go out now (not reset; a DATA head fits both flow-control windows).
It returns the id the policy would choose from the eligible ids, or
``None``, with its state untouched, when none is eligible.  Round-robin
tests only the streams up to its choice, not every queued stream.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import Callable, Dict, List, Optional

from repro.http2.priority import PriorityTree

#: ``eligible(stream_id) -> bool``: may this stream's head frame go now?
Eligible = Callable[[int], bool]


class MuxScheduler:
    """Interface: pick the next stream to service."""

    name = "base"

    def pick(self, ready: List[int], eligible: Eligible) -> Optional[int]:
        """Choose an eligible id of ``ready`` (ascending), or ``None``."""
        candidates = [sid for sid in ready if eligible(sid)]
        return self._choose(candidates) if candidates else None

    def _choose(self, eligible: List[int]) -> int:
        """Choose one of ``eligible`` (non-empty, ascending stream ids)."""
        raise NotImplementedError

    def on_stream_done(self, stream_id: int) -> None:
        """Notification that a stream has no more queued frames."""
        return None


class RoundRobinScheduler(MuxScheduler):
    """Rotate across active streams -- the paper's multiplexing server.

    The next stream is the first eligible one above the last pick,
    wrapping to the lowest eligible id.
    """

    name = "round-robin"

    def __init__(self):
        self._last: Optional[int] = None

    def pick(self, ready: List[int], eligible: Eligible) -> Optional[int]:
        start = 0 if self._last is None else bisect_right(ready, self._last)
        for index in chain(range(start, len(ready)), range(start)):
            sid = ready[index]
            if eligible(sid):
                self._last = sid
                return sid
        return None


class FifoScheduler(MuxScheduler):
    """Serve the oldest stream to completion before starting the next.

    This is the serialization the adversary wants to force; as a server
    policy it is also the "multiplexing disabled" configuration the
    paper notes most 2020 HTTP/2 deployments ran with.
    """

    name = "fifo"

    def __init__(self):
        # Insertion-ordered dict as an ordered set: arrival order is the
        # service order, and pick() runs once per transmitted frame.
        self._order: Dict[int, None] = {}

    def _choose(self, eligible: List[int]) -> int:
        eligible_set = frozenset(eligible)
        for sid in eligible:
            if sid not in self._order:
                self._order[sid] = None
        for sid in self._order:
            if sid in eligible_set:
                return sid
        return eligible[0]

    def on_stream_done(self, stream_id: int) -> None:
        self._order.pop(stream_id, None)


class WeightedScheduler(MuxScheduler):
    """Smooth weighted round-robin driven by the priority tree.

    Deterministic (no randomness): each pick adds every eligible
    stream's weight to its running credit, picks the highest credit, and
    subtracts the credit total from the winner.
    """

    name = "weighted"

    def __init__(self, tree: Optional[PriorityTree] = None):
        self.tree = tree or PriorityTree()
        self._credit: Dict[int, float] = {}

    def _choose(self, eligible: List[int]) -> int:
        weights = self.tree.scheduling_weights(eligible)
        total = 0.0
        best, best_credit = eligible[0], float("-inf")
        for sid in eligible:
            weight = weights.get(sid, 1.0 / len(eligible))
            credit = self._credit.get(sid, 0.0) + weight
            self._credit[sid] = credit
            total += weight
            if credit > best_credit:
                best, best_credit = sid, credit
        self._credit[best] -= total
        return best

    def on_stream_done(self, stream_id: int) -> None:
        self._credit.pop(stream_id, None)


def make_scheduler(kind: str, tree: Optional[PriorityTree] = None) -> MuxScheduler:
    """Factory for the named scheduler."""
    if kind == "round-robin":
        return RoundRobinScheduler()
    if kind == "fifo":
        return FifoScheduler()
    if kind == "weighted":
        return WeightedScheduler(tree)
    raise ValueError(f"unknown scheduler {kind!r}")
