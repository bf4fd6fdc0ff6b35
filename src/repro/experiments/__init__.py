"""Experiment harnesses.

One module per paper artefact (see DESIGN.md's per-experiment index):

* :mod:`repro.experiments.session` -- shared single-session runner.
* :mod:`repro.experiments.runner` -- parallel grid runner with an
  on-disk result cache (see docs/EXPERIMENTS_GUIDE.md).
* :mod:`repro.experiments.workers` -- forked worker pool: crash
  isolation and cell deadlines (see docs/RUNNER.md).
* :mod:`repro.experiments.evaluation` -- success criteria (Section V).
* :mod:`repro.experiments.baseline` -- E1, baseline multiplexing.
* :mod:`repro.experiments.table1` -- E2, jitter sweep (Table I).
* :mod:`repro.experiments.figure5` -- E3, bandwidth sweep (Fig. 5).
* :mod:`repro.experiments.drops` -- E4, targeted-drop reset (IV-D).
* :mod:`repro.experiments.table2` -- E5, full-attack accuracy (Table II).
* :mod:`repro.experiments.size_estimation` -- E6, Fig. 1 micro-benchmark.
* :mod:`repro.experiments.fingerprinting` -- E7a, ML classification.
* :mod:`repro.experiments.defenses_eval` -- E7b, defenses.
* :mod:`repro.experiments.faults_eval` -- EF, attack success under
  injected infrastructure faults (see docs/FAULTS.md).
* :mod:`repro.experiments.ablations` -- scheduler / dup-serve /
  TCP-recovery-generation ablations.
* :mod:`repro.experiments.streaming` -- E8 extension, streaming traffic.
* :mod:`repro.experiments.quic_transfer` -- E9 extension, HTTP/3.
* :mod:`repro.experiments.viz` -- ASCII wire timelines.
"""

from repro.experiments.runner import (
    GridError,
    GridResult,
    GridTelemetry,
    RunCache,
    RunResult,
    RunSpec,
    run_grid,
)
from repro.experiments.session import (
    SessionConfig,
    SessionResult,
    isidewith_size_map,
    run_session,
)
from repro.experiments.workers import WorkerStats

__all__ = ["SessionConfig", "SessionResult", "isidewith_size_map",
           "run_session",
           "GridError", "GridResult", "GridTelemetry", "RunCache", "RunResult",
           "RunSpec", "run_grid",
           "WorkerStats"]
