"""E2 -- Table I: effect of jitter on HTTP/2 multiplexing.

Paper numbers (object of interest = the 9500-byte result HTML):

===============  ==========================  =====================
delay/request    non-multiplexed cases (%)    retransmissions (+%)
===============  ==========================  =====================
0 ms (baseline)  32                           0
25 ms            46                           ~33
50 ms            54                           ~130
100 ms           54                           ~194
===============  ==========================  =====================

Our gateway model offers two jitter implementations (see DESIGN.md):
the deterministic spacing ramp (primary; reproduces the non-mux column)
and netem-style independent delay (reproduces retransmission inflation
at every level).  The harness reports both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core.phases import jitter_only_config
from repro.experiments.baseline import served_degree
from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import SessionConfig, run_session
from repro.website.isidewith import HTML_PATH

#: The paper's jitter values (seconds).
JITTER_VALUES_S = (0.0, 0.025, 0.05, 0.1)

#: Paper's Table I for the comparison columns.
PAPER_NONMUX_PCT = {0.0: 32, 0.025: 46, 0.05: 54, 0.1: 54}
PAPER_RETX_INCREASE_PCT = {0.0: 0, 0.025: 33, 0.05: 130, 0.1: 194}

#: Runner cell for one (seed, jitter, style) grid point.
CELL = "repro.experiments.table1:run_cell"


@dataclass
class JitterPoint:
    """One jitter setting's measurements."""

    jitter_s: float
    nonmux_pct: float
    mean_retransmissions: float
    retx_increase_pct: float
    broken_pct: float


@dataclass
class Table1Result:
    """The full sweep for one jitter style."""

    style: str
    n_per_point: int
    points: List[JitterPoint]
    telemetry: Optional[GridTelemetry] = None

    def table(self) -> ResultTable:
        table = ResultTable(
            f"E2 / Table I: jitter sweep (style={self.style})",
            ["jitter (ms)", "non-mux (%)", "paper (%)",
             "retx/load", "retx increase (%)", "paper (+%)"])
        for point in self.points:
            table.add_row(
                int(point.jitter_s * 1000),
                point.nonmux_pct,
                PAPER_NONMUX_PCT.get(point.jitter_s, "-"),
                point.mean_retransmissions,
                point.retx_increase_pct,
                PAPER_RETX_INCREASE_PCT.get(point.jitter_s, "-"),
            )
        return table

    def claims(self) -> List[Claim]:
        """Spacing reproduces the non-mux column, netem the retx inflation."""
        points = {p.jitter_s: p for p in self.points}
        if not set(JITTER_VALUES_S) <= points.keys():
            return [("sweep covers jitter 0/25/50/100 ms", False)]
        if self.style == "netem":
            retx = [points[j].mean_retransmissions for j in JITTER_VALUES_S]
            return [("retx/load > baseline + 3 at every jitter level",
                     all(r > retx[0] + 3 for r in retx[1:]))]
        nonmux = [points[j].nonmux_pct for j in JITTER_VALUES_S]
        return [
            ("non-mux rises from 0 to 25 ms jitter", nonmux[1] > nonmux[0]),
            ("non-mux at 50 ms > baseline + 10 points",
             nonmux[2] > nonmux[0] + 10),
            ("non-mux plateaus: |100 ms - 50 ms| < 25 points",
             abs(nonmux[3] - nonmux[2]) < 25),
        ]


def run_cell(seed: int, jitter_s: float, style: str) -> dict:
    """One simulated load at one jitter setting (JSON-able metrics)."""
    attack = jitter_only_config(jitter_s, style) if jitter_s > 0 else None
    result = run_session(SessionConfig(seed=seed, attack=attack))
    degree = served_degree(result, HTML_PATH)
    return {
        "nonmux": degree == 0.0,
        "observed": degree is not None,
        "retransmissions": result.retransmissions,
        "broken": bool(result.broken),
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def run_table1(n_per_point: int = 100, base_seed: int = 0,
               style: str = "spacing",
               **grid: Any) -> Table1Result:
    """Run the Table I sweep for one jitter style."""
    specs = [RunSpec.make(CELL, base_seed + i, jitter_s=jitter, style=style)
             for jitter in JITTER_VALUES_S for i in range(n_per_point)]
    runs = run_grid(specs, **grid)

    by_jitter = runs.group_by("jitter_s")

    points: List[JitterPoint] = []
    baseline_retx: Optional[float] = None
    for jitter in JITTER_VALUES_S:
        cells = by_jitter[jitter]
        nonmux = sum(c["nonmux"] for c in cells)
        observed = sum(c["observed"] for c in cells)
        retx = sum(c["retransmissions"] for c in cells)
        broken = sum(c["broken"] for c in cells)
        mean_retx = retx / n_per_point
        if baseline_retx is None:
            baseline_retx = max(mean_retx, 0.01)
            increase = 0.0
        else:
            increase = 100.0 * (mean_retx - baseline_retx) / baseline_retx
        points.append(JitterPoint(
            jitter_s=jitter,
            nonmux_pct=100.0 * nonmux / max(1, observed),
            mean_retransmissions=mean_retx,
            retx_increase_pct=increase,
            broken_pct=100.0 * broken / n_per_point,
        ))
    return Table1Result(style=style, n_per_point=n_per_point, points=points,
                        telemetry=GridTelemetry().add(runs))
