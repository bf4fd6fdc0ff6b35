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
    directly rather than through an ``__init__`` call.
    """

    __slots__ = ("callback", "args", "cancelled")

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; cancelling an
        event that already fired changes nothing the run can see."""
        self.cancelled = True
        self.callback = _noop
        self.args = ()

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
        self._seq = seq + 1
        heapq.heappush(self._queue, (when, seq, handle))
        return handle

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue empties or ``until`` passes.

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
            while queue:
                when, _seq, head = queue[0]
                if head.cancelled:
                    heappop(queue)
                    continue
                if until is not None and when > until:
                    break
                heappop(queue)
                self.now = when
                callback, args = head.callback, head.args
                if taps:
                    for tap in taps:
                        tap(when, callback)
                callback(*args)
                self._processed += 1
            # The loop stops only once every event up to ``until`` ran.
            if until is not None and self.now < until:
                self.now = until
            return self.now
        finally:
            self._running = False
