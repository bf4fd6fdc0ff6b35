"""Named one-shot deadline timers on the simulator clock.

A :class:`TimerWheel` gives resource-hardening code (connection and
stream deadlines in :mod:`repro.http2.server`) a tiny, leak-proof timer
vocabulary: ``arm(name, ...)`` replaces any previous timer of the same
name, ``cancel(name)`` is idempotent, and a wheel with nothing armed
schedules **zero** simulator events -- so code that merely *owns* a
wheel stays byte-identical to code without one.

Handles live in a dict keyed by name; the fire path removes the entry
before invoking the callback, so ``armed()`` is always truthful and a
callback re-arming its own name works naturally.
"""

from __future__ import annotations

from typing import Callable, Dict


class TimerWheel:
    """A set of named one-shot timers over ``sim.schedule``."""

    def __init__(self, sim):
        self.sim = sim
        self._armed: Dict[str, object] = {}
        #: Timers that reached their deadline and ran their callback.
        self.fired = 0
        #: Timers cancelled before firing.
        self.cancelled = 0

    def arm(self, name: str, delay_s: float, callback: Callable,
            *args) -> None:
        """Arm ``name`` to fire in ``delay_s``; re-arming replaces the
        previous deadline (cancel-then-arm)."""
        if delay_s < 0:
            raise ValueError(f"timer {name!r}: delay_s must be >= 0, "
                             f"got {delay_s}")
        self.cancel(name)
        self._armed[name] = self.sim.schedule(delay_s, self._fire,
                                              name, callback, args)

    def _fire(self, name: str, callback: Callable, args) -> None:
        self._armed.pop(name, None)
        self.fired += 1
        callback(*args)

    def cancel(self, name: str) -> None:
        """Disarm ``name`` if armed; a no-op otherwise."""
        handle = self._armed.pop(name, None)
        if handle is not None:
            handle.cancel()
            self.cancelled += 1

    def cancel_all(self) -> None:
        """Disarm everything (connection teardown)."""
        for name in list(self._armed):
            self.cancel(name)


__all__ = ["TimerWheel"]
