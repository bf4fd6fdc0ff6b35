"""Event loop and simulated clock.

The simulator is a classic binary-heap discrete-event scheduler.  All time
values are floats in *seconds*.  Components never sleep or poll; they
schedule callbacks.

Determinism: events scheduled for the same instant fire in scheduling
order (a monotone sequence number breaks ties), and all randomness is
drawn from named streams owned by the simulator (see
:mod:`repro.simnet.randomness`), so a run is a pure function of its seed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.simnet.randomness import RandomStreams


class EventHandle:
    """Cancellable handle for a scheduled event.

    Handles never enter the heap themselves: the queue holds
    ``(when, seq, handle)`` tuples so heap sift comparisons run as
    C-level tuple comparisons instead of a Python ``__lt__`` call per
    step (measured ~2.1x on schedule/cancel/pop churn; see the
    performance notes in docs/ARCHITECTURE.md).  ``seq`` is unique, so
    the handle is never compared and keeps neither key itself.

    Only :meth:`Simulator.schedule_at` makes handles, filling the slots
    directly rather than through an ``__init__`` call.  ``_sim`` is the
    owning simulator while the event is pending and ``None`` once it
    has fired or been cancelled, so a spent handle's :meth:`cancel`
    never touches the live-event count.
    """

    __slots__ = ("callback", "args", "cancelled", "_sim")

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent, and a no-op on an
        event that already fired."""
        sim = self._sim
        if sim is None:
            return
        self._sim = None
        self.cancelled = True
        self.callback = _noop
        self.args = ()
        sim._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle({state})"


def _noop() -> None:
    return None


class Simulator:
    """Discrete-event simulator with a seeded random-stream registry.

    Parameters
    ----------
    seed:
        Master seed.  Every named random stream derives from it, so two
        simulators built with the same seed produce identical runs.
    """

    def __init__(self, seed: int = 0):
        #: Heap of ``(when, seq, EventHandle)`` tuples (see EventHandle).
        self._queue: list = []
        self._seq = 0
        #: Current simulated time in seconds.  A plain attribute, read
        #: on every hot path; only :meth:`run` writes it.
        self.now = 0.0
        self._running = False
        self._processed = 0
        self._live = 0
        self.streams = RandomStreams(seed)
        #: Observation taps: each ``tap(when, callback)`` fires before
        #: every executed event.  Subscribe with ``taps.append(fn)``; an
        #: unarmed simulator loops over an empty list.  Taps only
        #: observe, never schedule.
        self.taps: List[Callable[[float, Callable[..., Any]], None]] = []

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def rng(self, name: str):
        """Return the named :class:`random.Random` stream."""
        return self.streams.get(name)

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self.now:
            raise ValueError(f"cannot schedule at {when} before now ({self.now})")
        seq = self._seq
        handle = object.__new__(EventHandle)
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle._sim = self
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._queue, (when, seq, handle))
        return handle

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue empties, ``until`` passes, or
        ``max_events`` have executed.

        Returns the simulated time when the run stopped.  When ``until``
        is given the clock is advanced to it even if the queue drained
        earlier, so repeated ``run(until=...)`` calls behave like a
        monotone clock.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        # The dispatch loop is the hottest code in the repository; local
        # bindings avoid repeated attribute lookups per event.
        queue = self._queue
        heappop = heapq.heappop
        # Bound once: subscribing mutates this same list.
        taps = self.taps
        try:
            executed = 0
            while queue:
                when, _seq, head = queue[0]
                if head.cancelled:
                    heappop(queue)
                    continue
                if until is not None and when > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                self._live -= 1
                self.now = when
                head._sim = None
                callback, args = head.callback, head.args
                if taps:
                    for tap in taps:
                        tap(when, callback)
                callback(*args)
                self._processed += 1
                executed += 1
            # Advance the idle clock to ``until`` only when no pending
            # event precedes it: a ``max_events`` break can leave earlier
            # events queued, and jumping past them would run them with a
            # backwards-moving clock on the next call.
            if until is not None and self.now < until:
                while queue and queue[0][2].cancelled:
                    heappop(queue)
                if not queue or queue[0][0] >= until:
                    self.now = until
            return self.now
        finally:
            self._running = False

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue.

        O(1): a live-event counter is maintained on schedule, cancel and
        pop rather than scanning the heap (which still physically holds
        cancelled entries until they surface).
        """
        return self._live
