"""Set-up probe: one fresh interpreter that stops at its first
dispatched session; the caller takes its CPU time.

``python3 perfbench/probe.py <workload> <seed>`` imports the workload's
experiment and calls its entry point exactly as a run does -- imports,
``code_version()`` hashing and, on the pool workload, the worker spawn
-- with the runner's ``execute_spec`` replaced by a stub that records
when it was dispatched and returns at once (patched before the pool
forks, so the worker runs the stub too).  The first grid ends the
probe, which prints ``{"dispatched_at": <time.time() of the first
cell>}`` and exits.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from artefacts import OUT_DIR, WORKLOADS, ensure_importable, rotation


class _FirstGrid(BaseException):
    """Carries the first grid out of the entry point."""


def main() -> int:
    workload = WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    ensure_importable()
    from repro.experiments import runner, workers
    from repro.experiments.runner import RunCache, RunResult

    def stub_execute(spec):
        return RunResult(spec=spec, metrics={"dispatched_at": time.time()},
                         wall_time_s=0.0, sim_time_s=0.0, processed_events=0,
                         cached=False)

    runner.execute_spec = workers.execute_spec = stub_execute
    module = importlib.import_module(workload.module)
    run_grid = module.run_grid

    def first_grid(*args, **kwargs):
        raise _FirstGrid(run_grid(*args, **kwargs))

    module.run_grid = first_grid
    OUT_DIR.mkdir(exist_ok=True)
    try:
        workload.run(rotation(workload, seed)[0], RunCache.disabled(),
                     OUT_DIR)
    except _FirstGrid as done:
        grid = done.args[0]
    else:
        raise RuntimeError("the entry point ran no grid")
    first = grid.results[0].metrics
    print(json.dumps({"dispatched_at": first["dispatched_at"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
