"""Whole-program static analyzer for the repro package.

The simulator's reproducibility contract (docs/ARCHITECTURE.md) is only
worth something if it is enforced; ``repro.lint`` turns its clauses into
machine-checked rules.  A run parses every file, builds a project-wide
symbol table / call graph (:mod:`repro.lint.project`), and dispatches
the rule families:

=========  ============================================================
DET001-6   determinism: set-iteration order (now interprocedural, with
           escape paths), wall-clock reads, global random state,
           layering, shared mutable state, sim-time float equality
SIM001     simulation contract: scheduling into the simulated past
           (law CLOCK_BACKWARD)
CACHE001-2 cache purity: ambient env/filesystem/cwd reads and mutable
           module-global use reachable from RunSpec cell functions
PROTO001-2 static counterparts of runtime protocol laws: window
           consume() domination (H2_WINDOW_NEGATIVE, true CFG
           dominance), frame emission after reset/CLOSED
           (H2_DATA_ON_RESET_STREAM)
RES001-2   typestate resource lifecycles over CFG paths: stream
           handles closed/reset on every path (H2_STREAM_LEAK),
           flow-control credit replenished on exception paths
           (H2_CREDIT_LEAK)
DOS001-3   peer-driven exhaustion shapes: receive loops with no
           timeout/deadline reachable from dispatch (DOS_SLOW_READ),
           unbounded appends of peer input in event handlers
           (DOS_UNBOUNDED_QUEUE), deadline timers left armed
           (TIMER_ARMED_NOT_CANCELLED)
PERF001-2  accidentally quadratic patterns (list.pop(0), linear 'in'
           on lists) inside event-loop-reachable hot paths
LEAK001-3  the adversary's information boundary, as interprocedural
           taint flows (:mod:`repro.lint.taint`): ground truth into
           adversary code (ADV_INFO_BOUNDARY), adversary output into
           defenses (DEFENSE_NO_FEEDBACK), passive taps mutating the
           observed system other than by ``x.taps.append(fn)``
           (TAP_PASSIVITY)
=========  ============================================================

The per-module rules run in one visitor pass (:mod:`repro.lint.rules`).
The flow-sensitive core behind PROTO/RES/DOS lives in
:mod:`repro.lint.cfg` (per-function control-flow graphs and
dominators) and :mod:`repro.lint.typestate` (declarative
acquire/release state machines); findings carry the concrete CFG path
(``via file:line`` hops) as evidence.

Silence a finding with a trailing ``# repro-lint: ignore[CODE]``
comment; unused suppressions are reported per code (SUP001) and unknown
codes in suppressions are flagged (SUP002).  Gradual adoption:
``--baseline`` / ``--write-baseline``.  Run as ``repro lint [paths]``
or ``python -m repro.lint``; see docs/LINTING.md for the full
catalogue.
"""

from repro.lint.engine import (ALL_CODES, UNKNOWN_CODE, UNUSED_CODE,
                               build_project, lint_paths, lint_source,
                               load_contexts, module_name_for,
                               resolve_codes)
from repro.lint.rules import RULES

__all__ = [
    "ALL_CODES",
    "RULES",
    "UNKNOWN_CODE",
    "UNUSED_CODE",
    "build_project",
    "lint_paths",
    "lint_source",
    "load_contexts",
    "module_name_for",
    "resolve_codes",
]
