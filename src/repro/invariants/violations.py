"""Structured taxonomy for runtime invariant violations.

A :class:`Violation` is a frozen record of one broken conservation law:
a stable machine-readable ``code``, the simulated time and place it was
detected, and a bounded snapshot of the events that led up to it.  The
exception classes wrap a violation per domain so harnesses can catch
broadly (:class:`InvariantViolation`) or narrowly (e.g.
:class:`Http2Violation`).  Everything here is passive data -- detection
lives in :mod:`repro.invariants.monitors`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach, safe to serialize in run metrics."""

    #: Stable identifier, e.g. ``LINK_CONSERVATION`` (see docs/INVARIANTS.md).
    code: str
    #: Which monitor domain tripped: clock / link / tcp / http2 / hpack
    #: / dos (emitted by the slow-DoS traffic detector).  The last is
    #: only ever collected, so it wraps in the base
    #: :class:`InvariantViolation`.
    domain: str
    #: Simulated time of detection (seconds).
    at_s: float
    #: Where in the topology/stack, e.g. ``link client->mbox`` or
    #: ``h2 server#0``.
    where: str
    #: Human-readable statement of the broken law, with the numbers.
    message: str
    #: Bounded trail of recent observed events, oldest first.
    recent: Tuple[str, ...] = ()

    def oneline(self) -> str:
        """Compact single-line rendering for logs and CLI output."""
        return f"[{self.code}] t={self.at_s:.6f}s {self.where}: {self.message}"

    def to_jsonable(self) -> dict:
        """Plain-dict form for ``RunResult`` metrics and reproducer files."""
        return {
            "code": self.code,
            "domain": self.domain,
            "at_s": self.at_s,
            "where": self.where,
            "message": self.message,
            "recent": list(self.recent),
        }


class InvariantViolation(AssertionError):
    """Base class for every monitor-raised violation.

    Subclasses :class:`AssertionError` so harnesses that know nothing of
    monitors still treat a breach as a failed assertion, not a crash of
    the harness itself.
    """

    def __init__(self, violation: Violation):
        self.violation = violation
        detail = violation.oneline()
        if violation.recent:
            detail += "\n  recent events:\n    " + "\n    ".join(violation.recent)
        super().__init__(detail)


class ClockViolation(InvariantViolation):
    """Simulation clock moved backwards."""


class LinkViolation(InvariantViolation):
    """Link byte conservation, queue bounds or FIFO order broken."""


class TcpViolation(InvariantViolation):
    """TCP sequence-space or state-machine law broken."""


class Http2Violation(InvariantViolation):
    """HTTP/2 flow-control or stream-legality law broken."""


class HpackViolation(InvariantViolation):
    """HPACK dynamic-table size bounds broken."""


#: Domain -> exception class used by :func:`make_error`.
DOMAIN_ERRORS = {
    "clock": ClockViolation,
    "link": LinkViolation,
    "tcp": TcpViolation,
    "http2": Http2Violation,
    "hpack": HpackViolation,
}


def make_error(violation: Violation) -> InvariantViolation:
    """Wrap a violation in its domain-specific exception class."""
    error_class = DOMAIN_ERRORS.get(violation.domain, InvariantViolation)
    return error_class(violation)


#: Events an :class:`EventRing` keeps.
RING_CAPACITY = 48


class EventRing:
    """Bounded ring buffer of recent events, rendered only on demand.

    An entry is a raw ``(sim_time, template, *args)`` tuple; only
    :meth:`snapshot` renders ``template % args``.  Monitors push entries
    on every observed event but read them only when a violation fires,
    so formatting is deferred to then.  Attached violations carry a
    snapshot so a raised error shows what the simulation was doing just
    before the breach, without unbounded memory growth on long runs.

    Push immutable scalars only, never a packet or frame: those are
    mutable, and the line must show the values at the event, not at the
    snapshot.  A ``%`` inside text meant literally is written ``%%`` in
    a template, or passed as an argument.
    """

    def __init__(self):
        self._events: deque = deque(maxlen=RING_CAPACITY)
        #: Append one raw ``(at_s, template, *args)`` entry.
        self.push = self._events.append

    def record(self, at_s: float, what: str) -> None:
        """Append an already-rendered description."""
        self._events.append((at_s, "%s", what))

    def snapshot(self) -> Tuple[str, ...]:
        """Render the ring oldest-first for embedding in a violation."""
        return tuple(f"t={entry[0]:.6f}s {entry[1] % entry[2:]}"
                     for entry in self._events)
