"""E6 -- Fig. 1: size estimation, serialized vs multiplexed.

The paper's motivating figure: with objects transmitted back-to-back,
summing packet sizes between sub-MTU delimiters recovers object sizes
exactly; with multiplexed transmission the same procedure produces
garbage.  We reproduce it quantitatively on a two-object micro site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.browser.browser import Browser, BrowserConfig
from repro.core.estimator import SizeEstimator
from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import SessionRig
from repro.http2.client import Http2Client
from repro.http2.server import Http2Server, Http2ServerConfig
from repro.simnet.topology import TopologyConfig
from repro.website.objects import WebObject
from repro.website.sitemap import PageLoadPlan, PlannedRequest, Site

OBJECT_A = 41_317
OBJECT_B = 28_750

#: Runner cell for one two-object load at one request gap.
CELL = "repro.experiments.size_estimation:run_cell"

#: The micro-benchmark's one simulator seed.
SEED = 5

#: Request gap of O2 after O1: wide enough to serialize the two
#: responses, and narrow enough to interleave them.
SERIALIZED_GAP_S = 0.30
MULTIPLEXED_GAP_S = 0.0005

#: How far (bytes) a recovered size may sit from the true one and still
#: count as exact.
TOLERANCE_BYTES = 200


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
    telemetry: Optional[GridTelemetry] = None

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


def run_cell(seed: int, gap_s: float) -> dict:
    """One two-object load: the object sizes the estimator recovers."""
    rig = SessionRig(seed, TopologyConfig(), monitors=False)
    sim = rig.sim
    site = _TwoObjectSite(gap_s)
    rig.watch(Http2Server(sim, rig.topo.server, site, Http2ServerConfig()))
    client = rig.watch(Http2Client(sim, rig.topo.client))
    browser = Browser(sim, client, site.plan_load(sim.rng("plan")),
                      BrowserConfig(page_timeout_s=10.0))
    browser.start()
    rig.run_until(lambda: browser.result is not None, 12.0, step_s=0.5)
    estimates = SizeEstimator().estimate_from_trace(rig.topo.trace)
    return {"sizes": [e.size for e in estimates if e.size > 5_000],
            "sim_time_s": sim.now,
            "processed_events": sim.processed_events}


def run_size_estimation(**grid: Any) -> SizeEstimationResult:
    """Run both Fig. 1 cases and check exact recovery."""
    runs = run_grid([RunSpec.make(CELL, SEED, gap_s=gap_s)
                     for gap_s in (SERIALIZED_GAP_S, MULTIPLEXED_GAP_S)],
                    **grid)
    serialized, multiplexed = (cell["sizes"] for cell in runs.metrics())

    def exact(estimates: List[int]) -> bool:
        return (len(estimates) == 2
                and abs(estimates[0] - OBJECT_A) <= TOLERANCE_BYTES
                and abs(estimates[1] - OBJECT_B) <= TOLERANCE_BYTES)

    return SizeEstimationResult(
        serialized_estimates=serialized,
        multiplexed_estimates=multiplexed,
        serialized_exact=exact(serialized),
        multiplexed_exact=exact(multiplexed),
        telemetry=GridTelemetry().add(runs),
    )
