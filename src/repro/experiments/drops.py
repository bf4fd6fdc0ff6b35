"""E4 -- targeted packet drops force the Reset Stream (Section IV-D).

The paper: with jitter and throttling applied, dropping 80 % of the
application packets on the server -> client path from the 6th GET until
the client resets yields a ~90 % rate of the object of interest being
transmitted non-multiplexed after the reset; pushing the drop rate
higher breaks the connection instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional

from repro.core.phases import AttackConfig
from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import SessionConfig, run_session
from repro.website.isidewith import HTML_PATH

#: Runner cell for one (seed, drop rate) grid point.
CELL = "repro.experiments.drops:run_cell"

#: Drop rates of the sweep; 0.8 is the paper's setting.
DROP_RATES = (0.5, 0.8, 0.95)


@dataclass
class DropPoint:
    """Measurements at one drop rate."""

    drop_rate: float
    html_serialized_pct: float
    html_identified_pct: float
    reset_happened_pct: float
    broken_pct: float


@dataclass
class DropsResult:
    """Drop-rate sweep around the paper's 80 % operating point."""

    n_per_point: int
    points: List[DropPoint]
    telemetry: Optional[GridTelemetry] = None

    def table(self) -> ResultTable:
        table = ResultTable(
            "E4 / Section IV-D: reset-forcing drop burst",
            ["drop rate (%)", "HTML serialized (%)", "HTML identified (%)",
             "client reset (%)", "broken (%)"])
        for point in self.points:
            table.add_row(point.drop_rate * 100, point.html_serialized_pct,
                          point.html_identified_pct,
                          point.reset_happened_pct, point.broken_pct)
        return table

    def claims(self) -> List[Claim]:
        """The paper's 80 % operating point resets and serializes the HTML."""
        by_rate = {p.drop_rate: p for p in self.points}
        if 0.8 not in by_rate:
            return [("sweep covers the 80 % drop rate", False)]
        operating = by_rate[0.8]
        return [
            ("80 % drops: client resets in >= 60 % of loads",
             operating.reset_happened_pct >= 60.0),
            ("80 % drops: HTML serialized in >= 70 % of loads",
             operating.html_serialized_pct >= 70.0),
        ]


def run_cell(seed: int, drop_rate: float) -> dict:
    """One attacked load at one drop rate (JSON-able metrics)."""
    attack = replace(AttackConfig(), drop_rate=drop_rate)
    result = run_session(SessionConfig(seed=seed, attack=attack))
    identified = (result.report is not None
                  and "html" in result.report.predicted_labels)
    return {
        "serialized": bool(result.serialized(HTML_PATH)),
        "identified": bool(identified),
        "reset": bool(result.load is not None and result.load.resets > 0),
        "broken": bool(result.broken),
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def run_drops(n_per_point: int = 100, base_seed: int = 0,
              **grid: Any) -> DropsResult:
    """Sweep the drop rate over :data:`DROP_RATES`."""
    specs = [RunSpec.make(CELL, base_seed + i, drop_rate=rate)
             for rate in DROP_RATES for i in range(n_per_point)]
    runs = run_grid(specs, **grid)

    by_rate = runs.group_by("drop_rate")

    points: List[DropPoint] = []
    for rate in DROP_RATES:
        cells = by_rate[rate]
        points.append(DropPoint(
            drop_rate=rate,
            html_serialized_pct=100.0 * sum(c["serialized"]
                                            for c in cells) / n_per_point,
            html_identified_pct=100.0 * sum(c["identified"]
                                            for c in cells) / n_per_point,
            reset_happened_pct=100.0 * sum(c["reset"]
                                           for c in cells) / n_per_point,
            broken_pct=100.0 * sum(c["broken"] for c in cells) / n_per_point,
        ))
    return DropsResult(n_per_point=n_per_point, points=points,
                       telemetry=GridTelemetry().add(runs))
