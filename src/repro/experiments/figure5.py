"""E3 -- Figure 5: effect of bandwidth limitation (Section IV-C).

The paper throttles the gateway to 1000 / 800 / 500 / 100 / 1 Mbps with
50 ms jitter active and observes (a) retransmissions falling
monotonically as bandwidth drops, and (b) the fraction of loads with the
HTML non-multiplexed peaking around 800 Mbps and degrading toward
1 Mbps, where connections start breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.core.phases import jitter_plus_throttle_config
from repro.experiments.baseline import served_degree
from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import SessionConfig, run_session
from repro.website.isidewith import HTML_PATH

#: The paper's bandwidth points (bits per second).
BANDWIDTH_VALUES_BPS = (1_000e6, 800e6, 500e6, 100e6, 1e6)
#: Request jitter held at every bandwidth point.
JITTER_S = 0.05

#: Runner cell for one (seed, jitter, bandwidth) grid point.
CELL = "repro.experiments.figure5:run_cell"


@dataclass
class BandwidthPoint:
    """Measurements at one throttle setting."""

    bandwidth_bps: float
    nonmux_pct: float
    mean_retransmissions: float
    broken_pct: float
    mean_duration_s: float


@dataclass
class Figure5Result:
    """The full bandwidth sweep."""

    n_per_point: int
    jitter_s: float
    points: List[BandwidthPoint]
    telemetry: Optional[GridTelemetry] = None

    def table(self) -> ResultTable:
        table = ResultTable(
            f"E3 / Fig. 5: bandwidth sweep (jitter={self.jitter_s*1000:.0f} ms)",
            ["bandwidth (Mbps)", "success/non-mux (%)", "retx/load",
             "broken (%)", "load time (s)"])
        for point in self.points:
            table.add_row(
                point.bandwidth_bps / 1e6,
                point.nonmux_pct,
                point.mean_retransmissions,
                point.broken_pct,
                point.mean_duration_s,
            )
        return table

    def claims(self) -> List[Claim]:
        points = {p.bandwidth_bps: p for p in self.points}
        if not {1e6, 800e6, 1_000e6} <= points.keys():
            return [("sweep covers 1, 800 and 1000 Mbps", False)]
        slowest, fastest = points[1e6], points[1_000e6]
        return [
            ("1 Mbps breaks loads or doubles the 1000 Mbps load time",
             slowest.broken_pct > 0
             or slowest.mean_duration_s > 2 * fastest.mean_duration_s),
            ("success at 1 Mbps <= success at 800 Mbps + 10 points",
             slowest.nonmux_pct <= points[800e6].nonmux_pct + 10),
        ]


def run_cell(seed: int, jitter_s: float, bandwidth_bps: float) -> dict:
    """One simulated load at one throttle setting (JSON-able metrics)."""
    attack = jitter_plus_throttle_config(jitter_s, bandwidth_bps)
    result = run_session(SessionConfig(seed=seed, attack=attack))
    degree = served_degree(result, HTML_PATH)
    return {
        "nonmux": degree == 0.0,
        "observed": degree is not None,
        "retransmissions": result.retransmissions,
        "broken": bool(result.broken),
        "duration_s": result.duration_s,
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def run_figure5(n_per_point: int = 100, base_seed: int = 0,
                bandwidths: Sequence[float] = BANDWIDTH_VALUES_BPS,
                **grid: Any) -> Figure5Result:
    """Run the Fig. 5 sweep."""
    specs = [RunSpec.make(CELL, base_seed + i, jitter_s=JITTER_S,
                          bandwidth_bps=bandwidth)
             for bandwidth in bandwidths for i in range(n_per_point)]
    runs = run_grid(specs, **grid)

    by_bandwidth = runs.group_by("bandwidth_bps")

    points: List[BandwidthPoint] = []
    for bandwidth in bandwidths:
        cells = by_bandwidth[bandwidth]
        nonmux = sum(c["nonmux"] for c in cells)
        observed = sum(c["observed"] for c in cells)
        points.append(BandwidthPoint(
            bandwidth_bps=bandwidth,
            nonmux_pct=100.0 * nonmux / max(1, observed),
            mean_retransmissions=sum(c["retransmissions"]
                                     for c in cells) / n_per_point,
            broken_pct=100.0 * sum(c["broken"] for c in cells) / n_per_point,
            mean_duration_s=sum(c["duration_s"]
                                for c in cells) / n_per_point,
        ))
    return Figure5Result(n_per_point=n_per_point, jitter_s=JITTER_S,
                         points=points,
                         telemetry=GridTelemetry().add(runs))
