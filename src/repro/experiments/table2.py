"""E5 -- Table II: end-to-end prediction accuracy (Section V).

The paper's numbers (success %, target = one object at a time / all
objects at a time):

=========  ====  ===  ===  ===  ===  ===  ===  ===  ===
object     HTML  I1   I2   I3   I4   I5   I6   I7   I8
single     100   100  100  100  100  100  100  100  100
all        90    90   85   81   80   62   64   78   64
=========  ====  ===  ===  ===  ===  ===  ===  ===  ===
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.core.phases import AttackConfig
from repro.experiments.evaluation import (
    Table2Outcome,
    aggregate_table2,
    evaluate_table2,
)
from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import (
    GridTelemetry,
    RunCache,
    RunSpec,
    run_grid,
)
from repro.experiments.session import SessionConfig, run_session

PAPER_SINGLE = (100, 100, 100, 100, 100, 100, 100, 100, 100)
PAPER_ALL = (90, 90, 85, 81, 80, 62, 64, 78, 64)
OBJECT_LABELS = ("HTML", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8")
#: Table II row 1: T(Req O_curr) - T(Req O_prev) in milliseconds.
PAPER_GAP_PREV_MS = (500, 780, 0.4, 2, 0.3, 0.1, 0.3, 2, 0.5)

#: Runner cells: one attacked load / one clean profiling load.
CELL = "repro.experiments.table2:run_cell"
GAP_CELL = "repro.experiments.table2:run_gap_cell"


@dataclass
class Table2Result:
    """Aggregated per-object success rates."""

    n: int
    single_pct: List[float]
    all_pct: List[float]
    broken_pct: float
    mean_resets: float
    #: Measured natural inter-request gaps (ms), Table II row 1.
    gap_prev_ms: List[float]
    telemetry: Optional[GridTelemetry] = None

    def table(self) -> ResultTable:
        table = ResultTable(
            "E5 / Table II: per-object attack success and request timing",
            ["object", "gap prev (ms)", "paper", "single (%)", "paper",
             "all-objects (%)", "paper"])
        for i, label in enumerate(OBJECT_LABELS):
            table.add_row(label,
                          round(self.gap_prev_ms[i], 1),
                          PAPER_GAP_PREV_MS[i],
                          self.single_pct[i], PAPER_SINGLE[i],
                          self.all_pct[i], PAPER_ALL[i])
        return table

    def claims(self) -> List[Claim]:
        images_single, images_all = self.single_pct[1:], self.all_pct[1:]
        return [
            ("single-target: every image >= 80 %",
             all(pct >= 80.0 for pct in images_single)),
            ("all-objects: every image >= 60 %",
             all(pct >= 60.0 for pct in images_all)),
            ("all-objects: HTML >= 50 %", self.all_pct[0] >= 50.0),
            ("all-objects: worst image > 40 % (chance 12.5 %)",
             min(images_all) > 40.0),
        ]


def run_cell(seed: int) -> dict:
    """One attacked load evaluated against the Table II criteria."""
    result = run_session(SessionConfig(seed=seed, attack=AttackConfig()))
    return {
        "outcome": asdict(evaluate_table2(result)),
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def run_gap_cell(seed: int) -> dict:
    """One clean load's natural inter-request gaps (ms) per slot.

    Slots are HTML then I1..I8; a slot is ``None`` when its object was
    the first request or never requested (e.g. warm-cache loads).
    """
    from repro.website.isidewith import HTML_PATH, IsideWithSite

    result = run_session(SessionConfig(seed=seed))
    events = [e for e in result.load.requests if not e.is_rerequest]
    times = {e.path: e.time for e in events}
    ordered = sorted(events, key=lambda e: e.time)
    positions = {e.path: k for k, e in enumerate(ordered)}
    targets = [HTML_PATH] + [IsideWithSite.image_path(p)
                             for p in result.permutation]
    gaps: List[Optional[float]] = []
    for path in targets:
        position = positions.get(path)
        if position is None or position == 0:
            gaps.append(None)
        else:
            gaps.append((times[path] - ordered[position - 1].time) * 1000.0)
    return {
        "gaps_ms": gaps,
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def measure_natural_gaps(n_loads: int = 10, base_seed: int = 5000,
                         cache: Optional[RunCache] = None,
                         telemetry: Optional[GridTelemetry] = None,
                         cell_timeout_s: Optional[float] = None,
                         retries: int = 0,
                         workers: int = 0) -> List[float]:
    """Mean natural inter-request gaps (ms) for HTML and I1..I8.

    Measured over clean (un-attacked) loads, exactly as the paper's
    adversary profiled its target before tuning the jitter
    (assumption 4 of Section III).
    """
    specs = [RunSpec.make(GAP_CELL, base_seed + i) for i in range(n_loads)]
    grid = run_grid(specs, cache=cache, timeout_s=cell_timeout_s,
                    retries=retries, workers=workers)
    if telemetry is not None:
        telemetry.add(grid)

    sums = [0.0] * 9
    counts = [0] * 9
    for metrics in grid.metrics():
        for slot, gap in enumerate(metrics["gaps_ms"]):
            if gap is None:
                continue
            sums[slot] += gap
            counts[slot] += 1
    return [sums[i] / counts[i] if counts[i] else 0.0 for i in range(9)]


def run_table2(n_loads: int = 100, base_seed: int = 0,
               cache: Optional[RunCache] = None,
               cell_timeout_s: Optional[float] = None,
               retries: int = 0,
               workers: int = 0) -> Table2Result:
    """Run the full attack over many volunteer sessions."""
    specs = [RunSpec.make(CELL, base_seed + i) for i in range(n_loads)]
    grid = run_grid(specs, cache=cache, timeout_s=cell_timeout_s,
                    retries=retries, workers=workers)
    telemetry = GridTelemetry().add(grid)

    outcomes = [Table2Outcome(**metrics["outcome"])
                for metrics in grid.metrics()]
    aggregated = aggregate_table2(outcomes)
    return Table2Result(
        n=aggregated["n"],
        single_pct=aggregated["single"],
        all_pct=aggregated["all"],
        broken_pct=aggregated["broken_pct"],
        mean_resets=aggregated["mean_resets"],
        gap_prev_ms=measure_natural_gaps(min(10, max(3, n_loads // 4)),
                                         cache=cache,
                                         telemetry=telemetry,
                                         cell_timeout_s=cell_timeout_s,
                                         retries=retries,
                                         workers=workers),
        telemetry=telemetry,
    )
