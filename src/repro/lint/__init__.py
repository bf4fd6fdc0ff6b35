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
CACHE001-2 cache purity: ambient env/filesystem/cwd reads and mutable
           module-global use reachable from RunSpec cell functions
DOS002     unbounded appends of peer input to instance state in
           event handlers (DOS_UNBOUNDED_QUEUE)
PERF001-2  accidentally quadratic patterns (list.pop(0), linear 'in'
           on lists) inside event-loop-reachable hot paths
LEAK001-2  the adversary's information boundary, as interprocedural
           taint flows (:mod:`repro.lint.taint`): ground truth into
           adversary code (ADV_INFO_BOUNDARY), adversary output into
           defenses (DEFENSE_NO_FEEDBACK)
=========  ============================================================

The per-module rules run in one visitor pass (:mod:`repro.lint.rules`).
Interprocedural findings carry the concrete path (``via file:line``
call-chain hops) as evidence.  Every rule must pay rent: docs/LINTING.md records, per
code, the real findings it made, the sites it checks in the tree, and
the runtime check or test that owns its bug class.

Silence a finding with a trailing ``# repro-lint: ignore[CODE]``
comment; unused suppressions are reported per code (SUP001) and unknown
codes in suppressions are flagged (SUP002).  Gradual adoption:
``--baseline`` / ``--write-baseline``.  Run as ``repro lint [paths]``
or ``python -m repro.lint``; see docs/LINTING.md for the full
catalogue.
"""

from repro.lint.engine import (ALL_CODES, UNKNOWN_CODE, UNUSED_CODE,
                               build_project, lint_paths, lint_source,
                               module_name_for, resolve_codes)
from repro.lint.rules import RULES

__all__ = [
    "ALL_CODES",
    "RULES",
    "UNKNOWN_CODE",
    "UNUSED_CODE",
    "build_project",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "resolve_codes",
]
