"""Single attack-session runner, and the testbed every session runs on.

One *session* is: one volunteer loads the survey result page through the
compromised gateway while (optionally) the adversary runs its pipeline.
The runner assembles the whole stack on a :class:`SessionRig` --
server, client, browser, attack -- runs the simulation to completion,
and returns every artefact the experiments need (capture, transmission
log, attack report, load outcome).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional

from repro.browser.browser import Browser, BrowserConfig, PageLoadResult
from repro.core.adversary import AttackReport, Http2SerializationAttack
from repro.core.metrics import ServeSpanIndex
from repro.core.phases import AttackConfig
from repro.core.predictor import SizeIdentityMap
from repro.faults import FaultInjector, FaultPlan
from repro.http2.client import Http2Client, Http2ClientConfig
from repro.http2.server import Http2Server, Http2ServerConfig
from repro.invariants import MonitorSuite
from repro.simnet.engine import Simulator
from repro.simnet.middlebox import CLIENT_TO_SERVER, SERVER_TO_CLIENT
from repro.simnet.topology import StandardTopology, TopologyConfig
from repro.tcp.connection import CACHED_SSTHRESH_BYTES, TcpConfig
from repro.website.isidewith import (
    HTML_SIZE,
    IsideWithSite,
    build_isidewith_site,
)

#: Simulated seconds run after a load settles, so that in-flight
#: packets land and the capture is complete.
GRACE_S = 0.3

#: The standard HTTP/2 server's TCP profile: retransmitted GETs are
#: re-served (Fig. 4), and slow start uses a cached ssthresh.
SERVER_TCP = TcpConfig(deliver_duplicates=True,
                       initial_ssthresh_bytes=CACHED_SSTHRESH_BYTES)


class SessionRig:
    """The testbed: a seeded simulator and the standard topology.

    ``monitors`` arms a raise-mode :class:`MonitorSuite` on the sim and
    links before any endpoint exists (a client sends its SYN when
    built); :meth:`watch` adds an HTTP/2 endpoint.  HTTP/1.1 and QUIC
    sessions get the sim and link monitors only.
    """

    def __init__(self, seed: int, topology: TopologyConfig, monitors: bool):
        self.sim = Simulator(seed=seed)
        self.topo = StandardTopology(self.sim, topology)
        self.suite: Optional[MonitorSuite] = None
        if monitors:
            self.suite = MonitorSuite(mode="raise")
            self.suite.attach(self.sim, topology=self.topo)

    def watch(self, endpoint):
        """Arm the monitors on an HTTP/2 server or client; returns it."""
        if self.suite is not None:
            self.suite.attach_endpoint(endpoint)
        return endpoint

    def run_until(self, done: Callable[[], bool], limit_s: float,
                  step_s: float) -> None:
        """Step the simulation until ``done()`` or ``limit_s``, run the
        grace period, then :meth:`finalize`."""
        sim = self.sim
        while not done() and sim.now < limit_s:
            sim.run(until=min(sim.now + step_s, limit_s))
        sim.run(until=sim.now + GRACE_S)
        self.finalize()

    def finalize(self) -> None:
        """End-of-run sweep of the armed monitors (a no-op unarmed)."""
        if self.suite is not None:
            self.suite.finalize()


@dataclass
class SessionConfig:
    """Everything one session depends on."""

    seed: int = 0
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    server: Http2ServerConfig = field(default_factory=Http2ServerConfig)
    browser: BrowserConfig = field(default_factory=BrowserConfig)
    attack: Optional[AttackConfig] = None
    #: Wall-clock cap on the simulated session.
    time_limit_s: float = 45.0
    #: Site factory (defaults to the synthetic isidewith.com).
    site_factory: Callable = build_isidewith_site
    #: Page to load on sites with multiple pages (RandomSite).
    page_id: int = 0
    #: Optional defense hook applied to the page plan before the load
    #: (e.g. :func:`repro.defenses.random_order.shuffle_scripted_requests`).
    plan_transform: Optional[Callable] = None
    #: Optional client HTTP/2 settings override (e.g. enable push).
    client_settings: Optional[object] = None
    #: TCP stack overrides (e.g. a legacy 2020-era stack without
    #: TLP/RACK/F-RTO for the recovery ablation).
    server_tcp: Optional[TcpConfig] = None
    client_tcp: Optional[TcpConfig] = None
    #: Browser implementation (e.g. the request-batching defense's
    #: :class:`repro.defenses.batching.BatchingBrowser`).
    browser_class: type = Browser
    #: Fault schedule: a :class:`repro.faults.FaultPlan` or its
    #: JSON-able event list.  None disables injection.
    faults: Optional[object] = None
    #: Arm the runtime invariant monitors
    #: (:class:`repro.invariants.MonitorSuite`, raise mode).  Monitors
    #: only observe, so an armed run is byte-identical to an unarmed
    #: one; the first broken conservation law raises an
    #: :class:`repro.invariants.InvariantViolation`.
    monitors: bool = False


@dataclass
class SessionResult:
    """Artefacts of one completed session."""

    config: SessionConfig
    load: Optional[PageLoadResult]
    report: Optional[AttackReport]
    tx_log: List
    trace: object
    attack: Optional[Http2SerializationAttack]
    site: object
    plan: object
    client: object
    server: object
    duration_s: float
    retransmissions_c2s: int
    retransmissions_s2c: int
    #: Events the simulator executed (perf telemetry for the runner).
    processed_events: int = 0
    #: The armed fault injector (``.applied`` logs what fired), or None.
    injector: Optional[FaultInjector] = None
    #: The armed monitor suite, or None when ``config.monitors`` was off.
    monitor: Optional[MonitorSuite] = None

    @property
    def permutation(self):
        return self.plan.meta.get("permutation")

    @property
    def warm(self) -> bool:
        return bool(self.plan.meta.get("warm"))

    @property
    def broken(self) -> bool:
        return self.load is None or self.load.broken

    @property
    def retransmissions(self) -> int:
        return self.retransmissions_c2s + self.retransmissions_s2c

    @cached_property
    def span_index(self) -> ServeSpanIndex:
        """The serve spans of ``tx_log``, grouped on first use."""
        return ServeSpanIndex(self.tx_log)

    def degree(self, path: str) -> float:
        """Ground-truth degree of multiplexing of an object's first serve."""
        return self.span_index.degree(path)

    def serialized(self, path: str) -> bool:
        """Ground truth: did the object cross the wire un-interleaved?"""
        return self.span_index.serialized(path)


def isidewith_size_map(site: IsideWithSite) -> SizeIdentityMap:
    """The adversary's pre-compiled size -> identity map (Section V),
    matched within the paper's 400-byte tolerance."""
    sizes = {HTML_SIZE: "html"}
    for size, party in site.party_size_map().items():
        sizes[size] = party
    return SizeIdentityMap(sizes)


def run_session(config: SessionConfig) -> SessionResult:
    """Run one volunteer session end to end."""
    rig = SessionRig(config.seed, config.topology, config.monitors)
    sim, topo = rig.sim, rig.topo
    site = config.site_factory()

    server = rig.watch(Http2Server(sim, topo.server, site, config.server,
                                   tcp_config=config.server_tcp
                                   or SERVER_TCP))

    attack: Optional[Http2SerializationAttack] = None
    if config.attack is not None:
        size_map = (isidewith_size_map(site)
                    if isinstance(site, IsideWithSite) else None)
        census = [obj.size for obj in site.objects.values()]
        attack = Http2SerializationAttack(sim, topo.middlebox, topo.trace,
                                          config.attack, size_map=size_map,
                                          census_sizes=census)
        attack.attach()

    client_config = Http2ClientConfig(authority=site.authority)
    if config.client_settings is not None:
        client_config.settings = config.client_settings
    client = rig.watch(Http2Client(sim, topo.client, config=client_config,
                                   tcp_config=config.client_tcp))

    # The volunteer's party permutation and cache state are sampled
    # from the seed.
    plan_rng = sim.rng("plan")
    if isinstance(site, IsideWithSite):
        plan = site.plan_load(plan_rng)
    else:
        plan = site.plan_load(plan_rng, config.page_id)
    if config.plan_transform is not None:
        plan = config.plan_transform(plan, sim.rng("plan-transform"))

    injector: Optional[FaultInjector] = None
    fault_plan = FaultPlan.coerce(config.faults)
    if fault_plan is not None and len(fault_plan):
        injector = FaultInjector(sim, topo, server=server, plan=fault_plan)
        injector.arm()

    browser = config.browser_class(sim, client, plan, config.browser)
    browser.start()

    rig.run_until(lambda: browser.result is not None, config.time_limit_s,
                  step_s=0.5)

    trace = topo.trace
    return SessionResult(
        config=config,
        load=browser.result,
        report=attack.report() if attack is not None else None,
        tx_log=server.combined_tx_log(),
        trace=trace,
        attack=attack,
        site=site,
        plan=plan,
        client=client,
        server=server,
        duration_s=sim.now,
        retransmissions_c2s=trace.retransmit_count(CLIENT_TO_SERVER),
        retransmissions_s2c=trace.retransmit_count(SERVER_TO_CLIENT),
        processed_events=sim.processed_events,
        injector=injector,
        monitor=rig.suite,
    )

