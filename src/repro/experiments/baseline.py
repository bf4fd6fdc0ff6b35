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
from typing import List

from repro.experiments.results import Claim, ResultTable
from repro.experiments.session import SessionConfig, run_session
from repro.website.isidewith import HTML_PATH, IsideWithSite


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


def run_baseline(n_loads: int = 100, base_seed: int = 0) -> BaselineResult:
    """Run ``n_loads`` clean sessions and aggregate degrees."""
    html_degrees: List[float] = []
    image_degrees: List[float] = []
    warm = 0
    retx = 0
    for i in range(n_loads):
        result = run_session(SessionConfig(seed=base_seed + i))
        warm += result.warm
        retx += result.retransmissions
        try:
            html_degrees.append(result.degree(HTML_PATH))
        except KeyError:
            pass
        for party in result.permutation:
            try:
                image_degrees.append(
                    result.degree(IsideWithSite.image_path(party)))
            except KeyError:
                pass

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
        warm_pct=100.0 * warm / n_loads,
        mean_retransmissions=retx / n_loads,
    )
