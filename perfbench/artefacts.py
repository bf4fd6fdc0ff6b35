"""The benchmark's workloads: three paper artefacts, run through their
public experiment entry points with the run cache disabled.

Each workload owns a pool of committed input seeds.  One *iteration*
regenerates the artefact for one input seed; one *round* runs every
input of the pool once, starting at ``--seed`` modulo the pool size.
A run is a whole number of rounds, so every run does the same sessions
whatever its seed -- only their order changes -- and each iteration's
output is compared with the value committed in ``expected.json``.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import hostspeed

#: Checkout root (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for run outputs (gitignored); never outside the checkout.
OUT_DIR = ROOT / ".perfbench-out"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Per-cell deadline on the pool workload (inline cells cannot have one
#: without switching the runner to its fork-per-cell mode).
CELL_TIMEOUT_S = 60.0

#: Metrics keys under which a cell ships its thread CPU seconds, those
#: of the host-speed reference slice run just before it, and the wall
#: seconds the benchmark's wrapper added around the runner's cell.
CPU_KEY = "_perfbench_cpu_s"
REF_KEY = "_perfbench_ref_s"
HARNESS_KEY = "_perfbench_harness_s"


def ensure_importable() -> None:
    """Put the checkout's ``src`` on the path, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"no repro package under {SRC}: run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    """One paper artefact and the committed inputs it is run on."""

    name: str
    #: Experiment module whose ``run_grid`` global is observed.
    module: str
    #: Committed input seeds, one iteration each; a round of them is at
    #: least ``run.MIN_SAMPLES`` sessions.
    pool: Tuple[int, ...]
    #: ``run(input_seed, cache, scratch_dir)`` -> artefact result.
    run: Callable[[int, Any, Path], Any]
    #: Artefact result -> JSON-able output compared with expected.json.
    output: Callable[[Any], dict]
    #: Cells run on the persistent pool (whose worker's RSS counts).
    pooled: bool = False


def _run_table2(seed: int, cache, _scratch: Path):
    from repro.experiments.table2 import run_table2
    return run_table2(n_loads=12, base_seed=seed, cache=cache, workers=0)


def _table2_output(result) -> dict:
    return {"n": result.n, "single_pct": result.single_pct,
            "all_pct": result.all_pct, "broken_pct": result.broken_pct,
            "mean_resets": result.mean_resets,
            "gap_prev_ms": result.gap_prev_ms,
            "cells": result.telemetry.cells,
            "events": result.telemetry.processed_events}


def _run_figure5(seed: int, cache, _scratch: Path):
    from repro.experiments.figure5 import run_figure5
    return run_figure5(n_per_point=4, base_seed=seed, cache=cache,
                       workers=1, cell_timeout_s=CELL_TIMEOUT_S)


def _figure5_output(result) -> dict:
    return {"points": [asdict(point) for point in result.points],
            "cells": result.telemetry.cells,
            "events": result.telemetry.processed_events}


def _run_chaos(seed: int, cache, scratch: Path):
    from repro.experiments.chaos import run_chaos
    return run_chaos(seeds=40, master_seed=seed, shrink=False,
                     out_dir=str(scratch / "chaos-reproducers"), cache=cache)


def _chaos_output(result) -> dict:
    return {"clean": result.clean,
            "findings": [[f.index, f.violation["code"]]
                         for f in result.findings],
            "crashes": [list(crash) for crash in result.crashes],
            "cells": result.telemetry.cells,
            "events": result.telemetry.processed_events}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("table2_attack", "repro.experiments.table2",
             tuple(range(0, 8000, 1000)), _run_table2, _table2_output),
    Workload("figure5_bandwidth", "repro.experiments.figure5",
             tuple(range(0, 6000, 1000)), _run_figure5, _figure5_output,
             pooled=True),
    Workload("chaos_monitored", "repro.experiments.chaos",
             (0, 1, 2, 3), _run_chaos, _chaos_output),
)}


def canonical(value: Any) -> Any:
    """JSON round trip: tuples become lists, floats keep every digit."""
    return json.loads(json.dumps(value, sort_keys=True))


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def rotation(workload: Workload, seed: int) -> List[int]:
    """One round of the pool, starting at ``seed`` modulo its size."""
    start = seed % len(workload.pool)
    return list(workload.pool[start:] + workload.pool[:start])


@dataclass
class Iteration:
    """One artefact regeneration and the grids it ran."""

    input_seed: int
    wall_s: float
    #: Host CPU seconds of this process plus the pool workers it reaped.
    cpu_s: float
    output: Optional[dict]
    grids: List[Any] = field(default_factory=list)
    #: Host CPU seconds of each successful cell, in completion order,
    #: and of the reference slice run just before each of them.
    cell_cpu_s: List[float] = field(default_factory=list)
    cell_ref_s: List[float] = field(default_factory=list)
    #: Wall seconds the benchmark's cell wrapper added to the grids.
    harness_s: float = 0.0
    #: Cells that failed (grid failures incl. timeouts, chaos findings).
    failed: int = 0
    error: Optional[str] = None
    #: Session summaries popped from a traced run's metrics.
    summaries: List[dict] = field(default_factory=list)

    @property
    def cells(self) -> int:
        return sum(len(grid) for grid in self.grids)

    @property
    def speed(self) -> float:
        """Host slowness over the iteration: its mean reference slice
        over the nominal one."""
        return (sum(self.cell_ref_s) / len(self.cell_ref_s)
                / hostspeed.NOMINAL_S)

    @property
    def work_s(self) -> float:
        """CPU seconds of the iteration less its reference slices."""
        return self.cpu_s - sum(self.cell_ref_s)

    def cell_nominal_s(self) -> List[float]:
        """Each cell's CPU seconds on the nominal host: scaled by the
        reference slice run just before it (see ``hostspeed``)."""
        return [cpu / ref * hostspeed.NOMINAL_S
                for cpu, ref in zip(self.cell_cpu_s, self.cell_ref_s)]


def _cpu_s() -> float:
    """CPU seconds of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _timed(execute: Callable) -> Callable:
    """``execute_spec`` that also reports the cell's thread CPU time,
    after timing one host-speed reference slice in the same thread."""
    def timed_execute(spec):
        begin = time.perf_counter()
        ref = hostspeed.slice_s()
        start = time.thread_time()
        result = execute(spec)
        result.metrics[CPU_KEY] = time.thread_time() - start
        result.metrics[REF_KEY] = ref
        result.metrics[HARNESS_KEY] = (time.perf_counter() - begin
                                       - result.wall_time_s)
        return result
    return timed_execute


def run_iteration(workload: Workload, input_seed: int,
                  scratch: Path) -> Iteration:
    """Regenerate one artefact, observing every grid its entry point
    runs (``GridError`` included) through the module's ``run_grid``.

    The runner's ``execute_spec`` is wrapped to time each cell's CPU
    and a reference slice before it (in the pool worker too: it forks
    after the patch); the observer strips those, and a traced run's
    session summaries, from the metrics before the experiment
    aggregates them.
    """
    import importlib

    from repro.experiments import runner, workers
    from repro.experiments.runner import GridError, RunCache

    from spans import TRACE_KEY

    module = importlib.import_module(workload.module)
    real_run_grid = module.run_grid
    real_execute = runner.execute_spec
    grids: List[Any] = []
    cell_cpu_s: List[float] = []
    cell_ref_s: List[float] = []
    harness_s: List[float] = []
    summaries: List[dict] = []

    def strip(grid) -> None:
        grids.append(grid)
        for result in grid.results:
            harness_s.append(result.metrics.pop(HARNESS_KEY, 0.0))
            cpu = result.metrics.pop(CPU_KEY, None)
            ref = result.metrics.pop(REF_KEY, None)
            if cpu is not None and not result.failed:
                cell_cpu_s.append(cpu)
                cell_ref_s.append(ref)
            summary = result.metrics.pop(TRACE_KEY, None)
            if summary is not None:
                summaries.append(summary)

    def observed_run_grid(*args, **kwargs):
        try:
            grid = real_run_grid(*args, **kwargs)
        except GridError as exc:
            strip(exc.grid)
            raise
        strip(grid)
        return grid

    module.run_grid = observed_run_grid
    runner.execute_spec = workers.execute_spec = _timed(real_execute)
    output = error = None
    cpu_start, start = _cpu_s(), time.perf_counter()
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            result = workload.run(input_seed, RunCache.disabled(), Path(tmp))
        output = canonical(workload.output(result))
    except GridError as exc:
        error = str(exc)
    finally:
        wall, cpu = time.perf_counter() - start, _cpu_s() - cpu_start
        module.run_grid = real_run_grid
        runner.execute_spec = workers.execute_spec = real_execute
    failed = sum(len(grid.failures) for grid in grids)
    if output is not None:
        failed += len(output.get("findings", ()))
    return Iteration(input_seed=input_seed, wall_s=wall, cpu_s=cpu,
                     output=output, grids=grids, cell_cpu_s=cell_cpu_s,
                     cell_ref_s=cell_ref_s, harness_s=sum(harness_s),
                     failed=failed, error=error, summaries=summaries)
