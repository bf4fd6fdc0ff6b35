"""E1 -- baseline multiplexing without the adversary (Section IV).

Paper observations this experiment reproduces:

* the result HTML's degree of multiplexing is ~98 % on loads where it
  multiplexes at all,
* a minority of loads (about a third -- warm caches) see it arrive
  un-multiplexed, which is Table I's 32 % baseline,
* the emblem images' degrees range from 80 to 99 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import SessionConfig, run_session
from repro.http2.server import Http2ServerConfig
from repro.website.isidewith import HTML_PATH, IsideWithSite

#: Runner cell for one clean load under one server scheduler.
CELL = "repro.experiments.baseline:run_cell"


@dataclass
class BaselineResult:
    """Aggregated baseline multiplexing statistics."""

    n: int
    html_nonmux_pct: float
    html_degree_when_muxed: float
    image_mean_degree: float
    image_high_mux_pct: float
    image_nonmux_pct: float
    warm_pct: float
    mean_retransmissions: float
    telemetry: Optional[GridTelemetry] = None

    def table(self) -> ResultTable:
        table = ResultTable(
            "E1: baseline multiplexing (no adversary)",
            ["metric", "measured", "paper"])
        table.add_row("HTML non-multiplexed loads (%)",
                      self.html_nonmux_pct, "32")
        table.add_row("HTML degree when multiplexed (%)",
                      self.html_degree_when_muxed * 100, "~98")
        table.add_row("image mean degree (%)",
                      self.image_mean_degree * 100, "80-99")
        table.add_row("images with degree > 0.8 (%)",
                      self.image_high_mux_pct, "most")
        table.add_row("loads with warm cache (%)", self.warm_pct, "n/a")
        return table

    def claims(self) -> List[Claim]:
        return [
            ("HTML non-multiplexed in 10-55 % of loads",
             10.0 <= self.html_nonmux_pct <= 55.0),
            ("HTML degree when multiplexed > 0.6",
             self.html_degree_when_muxed > 0.6),
            ("image mean degree > 0.35", self.image_mean_degree > 0.35),
        ]


def served_degree(result, path: str) -> Optional[float]:
    """The object's degree of multiplexing, None when it was not served."""
    try:
        return result.degree(path)
    except KeyError:
        return None


def run_cell(seed: int, scheduler: str) -> dict:
    """One clean load: the degree of multiplexing of the HTML and of
    every emblem image that was served (JSON-able metrics)."""
    result = run_session(SessionConfig(
        seed=seed, server=Http2ServerConfig(scheduler=scheduler)))
    images = [served_degree(result, IsideWithSite.image_path(party))
              for party in result.permutation]
    return {
        "html_degree": served_degree(result, HTML_PATH),
        "image_degrees": [d for d in images if d is not None],
        "warm": result.warm,
        "retransmissions": result.retransmissions,
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def run_baseline(n_loads: int = 100, base_seed: int = 0,
                 **grid: Any) -> BaselineResult:
    """Run ``n_loads`` clean sessions and aggregate degrees."""
    specs = [RunSpec.make(CELL, base_seed + i, scheduler="round-robin")
             for i in range(n_loads)]
    runs = run_grid(specs, **grid)
    cells = runs.metrics()
    html_degrees = [c["html_degree"] for c in cells
                    if c["html_degree"] is not None]
    image_degrees = [d for c in cells for d in c["image_degrees"]]

    muxed = [d for d in html_degrees if d > 0]
    return BaselineResult(
        n=n_loads,
        html_nonmux_pct=100.0 * sum(d == 0.0 for d in html_degrees)
                        / max(1, len(html_degrees)),
        html_degree_when_muxed=(sum(muxed) / len(muxed)) if muxed else 0.0,
        image_mean_degree=(sum(image_degrees) / len(image_degrees))
                          if image_degrees else 0.0,
        image_high_mux_pct=100.0 * sum(d > 0.8 for d in image_degrees)
                           / max(1, len(image_degrees)),
        image_nonmux_pct=100.0 * sum(d == 0.0 for d in image_degrees)
                         / max(1, len(image_degrees)),
        warm_pct=100.0 * sum(c["warm"] for c in cells) / n_loads,
        mean_retransmissions=sum(c["retransmissions"]
                                 for c in cells) / n_loads,
        telemetry=GridTelemetry().add(runs),
    )
