"""E6 -- Fig. 1: size estimation, serialized vs multiplexed.

The paper's motivating figure: with objects transmitted back-to-back,
summing packet sizes between sub-MTU delimiters recovers object sizes
exactly; with multiplexed transmission the same procedure produces
garbage.  We reproduce it quantitatively on a two-object micro site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.browser.browser import Browser, BrowserConfig
from repro.core.estimator import SizeEstimator
from repro.experiments.results import Claim, ResultTable
from repro.http2.client import Http2Client
from repro.http2.server import Http2Server, Http2ServerConfig
from repro.simnet.engine import Simulator
from repro.simnet.topology import StandardTopology
from repro.website.objects import WebObject
from repro.website.sitemap import PageLoadPlan, PlannedRequest, Site

OBJECT_A = 41_317
OBJECT_B = 28_750


class _TwoObjectSite(Site):
    """O1 and O2, requested with a configurable gap."""

    def __init__(self, gap_s: float):
        super().__init__(name="micro", authority="micro.example")
        self.gap_s = gap_s
        self.add(WebObject(path="/o1", size=OBJECT_A,
                           content_type="image/png", cacheable=False))
        self.add(WebObject(path="/o2", size=OBJECT_B,
                           content_type="image/png", cacheable=False))

    def plan_load(self, rng, _page_id: int = 0) -> PageLoadPlan:
        return PageLoadPlan(
            initial=[],
            html=PlannedRequest(path="/o1", gap_s=0.0),
            preload=[PlannedRequest(path="/o2", gap_s=self.gap_s)],
            exec_delay_s=0.01,
        )


@dataclass
class SizeEstimationResult:
    """Estimates under the two Fig. 1 cases."""

    serialized_estimates: List[int]
    multiplexed_estimates: List[int]
    serialized_exact: bool
    multiplexed_exact: bool

    def table(self) -> ResultTable:
        table = ResultTable(
            "E6 / Fig. 1: size recovery, serialized vs multiplexed",
            ["case", "true sizes", "recovered sizes", "exact?"])
        truth = f"{OBJECT_A}, {OBJECT_B}"
        table.add_row("serialized (O2 after O1)", truth,
                      ", ".join(map(str, self.serialized_estimates)),
                      "yes" if self.serialized_exact else "no")
        table.add_row("multiplexed (interleaved)", truth,
                      ", ".join(map(str, self.multiplexed_estimates)),
                      "yes" if self.multiplexed_exact else "no")
        return table

    def claims(self) -> List[Claim]:
        return [("serialized case recovers both sizes",
                 self.serialized_exact),
                ("multiplexed case does not", not self.multiplexed_exact)]


def _run_micro(gap_s: float, seed: int = 5) -> List[int]:
    sim = Simulator(seed=seed)
    topo = StandardTopology(sim)
    site = _TwoObjectSite(gap_s)
    Http2Server(sim, topo.server, site, Http2ServerConfig())
    client = Http2Client(sim, topo.client, "server")
    browser = Browser(sim, client, site.plan_load(sim.rng("plan")),
                      BrowserConfig(page_timeout_s=10.0))
    browser.start()
    while browser.result is None and sim.now < 12.0:
        sim.run(until=sim.now + 0.5)
    sim.run(until=sim.now + 0.3)
    estimates = SizeEstimator().estimate_from_trace(topo.trace)
    return [e.size for e in estimates if e.size > 5_000]


def run_size_estimation(serialized_gap_s: float = 0.30,
                        multiplexed_gap_s: float = 0.0005,
                        tolerance: int = 200) -> SizeEstimationResult:
    """Run both Fig. 1 cases and check exact recovery."""
    serialized = _run_micro(serialized_gap_s)
    multiplexed = _run_micro(multiplexed_gap_s)

    def exact(estimates: List[int]) -> bool:
        return (len(estimates) == 2
                and abs(estimates[0] - OBJECT_A) <= tolerance
                and abs(estimates[1] - OBJECT_B) <= tolerance)

    return SizeEstimationResult(
        serialized_estimates=serialized,
        multiplexed_estimates=multiplexed,
        serialized_exact=exact(serialized),
        multiplexed_exact=exact(multiplexed),
    )
