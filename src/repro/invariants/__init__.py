"""Runtime invariant monitors and the seeded chaos harness.

Public surface:

* :class:`MonitorSuite` -- attachable monitors asserting conservation
  laws on a live simulation (see ``docs/INVARIANTS.md``),
* the :class:`InvariantViolation` taxonomy raised or collected when a
  law breaks,
* :class:`ChaosSpec` / :func:`generate_spec` / :func:`shrink_candidates`
  -- the data side of the ``repro chaos`` fuzzer (the driver lives in
  :mod:`repro.experiments.chaos`).
"""

from repro.invariants.chaos import (
    CHAOS_DEFENSES,
    CHAOS_SCHEDULERS,
    ChaosSpec,
    generate_spec,
    shrink_candidates,
)
from repro.invariants.dos_detector import DosDetector
from repro.invariants.monitors import MonitorSuite
from repro.invariants.violations import (
    ClockViolation,
    EventRing,
    HpackViolation,
    Http2Violation,
    InvariantViolation,
    LinkViolation,
    TcpViolation,
    Violation,
    make_error,
)

__all__ = [
    "CHAOS_DEFENSES",
    "CHAOS_SCHEDULERS",
    "ChaosSpec",
    "ClockViolation",
    "DosDetector",
    "EventRing",
    "HpackViolation",
    "Http2Violation",
    "InvariantViolation",
    "LinkViolation",
    "MonitorSuite",
    "TcpViolation",
    "Violation",
    "generate_spec",
    "make_error",
    "shrink_candidates",
]
