"""DOS -- slow-HTTP/2 attacks vs. server hardening vs. detection.

Sweeps attack kind x intensity x server profile over the runner and
answers three questions per cell:

1. **Exhaustion** -- does the attack drive the *open* (unhardened)
   server out of a finite resource (accept slots, stream slots, or
   control-frame processing)?
2. **Goodput** -- what fraction of a legitimate page load, started
   ``LEGIT_START_S`` into the attack, still completes?  The hardened
   profile must keep this >= 90%.
3. **Detection** -- does the passive
   :class:`~repro.invariants.dos_detector.DosDetector` flag the attack
   in sim time, and stay silent on the legitimate-slow-client control
   (kind ``"none"`` on a 2 Mbps / 150 ms access link, the traffic shape
   naive timeouts misclassify)?

Attack and legitimate client share one host TCP stack (a host carries a
single transport), exactly like malware riding a victim's machine.  The
cell's :class:`~repro.attacks.spec.AttackSpec` rides inside the
:class:`~repro.experiments.runner.RunSpec` params, so it is hashed into
the cache key like a fault plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.attacks import ATTACK_KINDS, AttackSpec, make_agent
from repro.browser.browser import Browser, BrowserConfig
from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import SERVER_TCP, SessionRig
from repro.http2.client import Http2Client, Http2ClientConfig
from repro.http2.server import Http2Server, Http2ServerConfig
from repro.invariants import DosDetector
from repro.simnet.topology import TopologyConfig
from repro.website.isidewith import build_isidewith_site

#: Runner cell for one (seed, kind, profile, intensity) grid point.
CELL = "repro.experiments.dos_eval:run_cell"

#: Server profiles swept by the experiment.
PROFILES = ("open", "hardened")
#: Attack kinds and intensities the sweep crosses with the profiles.
KINDS = ATTACK_KINDS
INTENSITIES = (0.5, 1.0)

#: Control "kind": no attack, legitimate client on a slow access link.
CONTROL_KIND = "none"

#: Accept-table size: small enough that a slow-preamble attack can
#: plausibly fill it within one cell.
MAX_CONNECTIONS = 8

#: When the legitimate load starts, relative to the attack at t=0.
LEGIT_START_S = 3.0

#: How long each attack applies pressure.
ATTACK_DURATION_S = 12.0

#: Simulated time budget after the legitimate load starts.
TAIL_S = 15.0


def server_config(profile: str) -> Http2ServerConfig:
    """The swept server profiles.

    The hardened budgets (:mod:`repro.http2.server`) sit deliberately
    *above* the detector thresholds (detect-then-shield) and *below*
    every attack intensity swept here; see docs/DOS.md for the full
    ladder.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown server profile {profile!r} "
                         f"(expected one of {PROFILES})")
    return Http2ServerConfig(max_connections=MAX_CONNECTIONS,
                             hardened=profile == "hardened")


def attack_spec(kind: str, intensity: float) -> AttackSpec:
    """Scale one attack kind by ``intensity`` (1.0 = reference load)."""
    if kind == "slow_preamble":
        return AttackSpec(kind, duration_s=ATTACK_DURATION_S,
                          connections=max(1, round(MAX_CONNECTIONS
                                                   * intensity)),
                          pace_s=0.5)
    if kind in ("slow_headers", "slow_post"):
        return AttackSpec(kind, duration_s=ATTACK_DURATION_S,
                          streams=max(1, round(160 * intensity)),
                          pace_s=0.02 if kind == "slow_headers" else 1.25)
    rates = {"ping_flood": 120.0, "settings_flood": 80.0,
             "stream_reset_churn": 60.0}
    return AttackSpec(kind, duration_s=ATTACK_DURATION_S,
                      rate_per_s=rates[kind] * intensity)


def _exhausted(server: Http2Server, kind: str) -> bool:
    """Kind-specific open-server resource-exhaustion witness."""
    if kind == "slow_preamble":
        return server.refused_connections > 0
    if kind in ("slow_headers", "slow_post"):
        return any(c.refused_streams > 0 for c in server.connections)
    if kind == "ping_flood":
        return sum(c.pings_received for c in server.connections) >= 600
    if kind == "settings_flood":
        return sum(c.settings_received for c in server.connections) >= 400
    if kind == "stream_reset_churn":
        return sum(c.resets_received for c in server.connections) >= 300
    return False


def run_cell(seed: int, kind: str, profile: str, intensity: float,
             attack: Optional[dict]) -> dict:
    """One attacked (or control) legitimate load (JSON-able metrics)."""
    # The control models a legitimate-but-slow client: a 2 Mbps access
    # link with 150 ms propagation stretches its handshake and transfer
    # times toward naive-timeout territory.
    topo_config = (TopologyConfig(client_bandwidth_bps=2_000_000,
                                  client_propagation_s=0.15)
                   if kind == CONTROL_KIND else TopologyConfig())
    rig = SessionRig(seed, topo_config, monitors=False)
    sim = rig.sim
    site = build_isidewith_site()

    server = rig.watch(Http2Server(sim, rig.topo.server, site,
                                   server_config(profile),
                                   tcp_config=SERVER_TCP))
    detector = DosDetector(sim)
    detector.attach(server)

    client = rig.watch(Http2Client(
        sim, rig.topo.client,
        config=Http2ClientConfig(authority=site.authority)))

    agent = None
    spec = AttackSpec.coerce(attack)
    if spec is not None:
        # The attacker rides the legitimate host's (single) TCP stack.
        agent = make_agent(sim, client.tcp, spec)
        agent.start()

    plan = site.plan_load(sim.rng("plan"), warm=False)
    browser = Browser(sim, client, plan, BrowserConfig())
    sim.schedule(LEGIT_START_S, browser.start)

    # Exhaustion is read after every step, and the cell ends with no
    # grace period, so it steps itself instead of ``rig.run_until``.
    time_limit = LEGIT_START_S + TAIL_S
    exhausted_at: Optional[float] = None
    while sim.now < time_limit:
        sim.run(until=min(sim.now + 0.5, time_limit))
        if exhausted_at is None and _exhausted(server, kind):
            exhausted_at = sim.now
        if agent is None and browser.result is not None:
            break  # control cell: done once the page settles
    rig.finalize()
    detector.finalize(sim.now)

    needed = set(plan.uncached_paths())
    if browser.result is not None:
        completed = set(browser.result.completed_paths)
    else:
        # Load still wedged at the cutoff: count what actually landed.
        completed = {stream.path for stream in client.completed}
    goodput_pct = 100.0 * len(needed & completed) / max(1, len(needed))

    return {
        "kind": kind,
        "profile": profile,
        "intensity": intensity,
        "goodput_pct": goodput_pct,
        "exhausted": exhausted_at is not None,
        "exhausted_at_s": exhausted_at,
        "detected": detector.detected,
        "detect_codes": detector.codes(),
        "detect_latency_s": detector.first_flag_at,
        "dials": agent.dials if agent is not None else 0,
        "attack_frames": agent.frames_sent if agent is not None else 0,
        "refused_connections": server.refused_connections,
        "shed_connections": server.shed_connections,
        "reaped_connections": server.reaped_connections,
        "timed_out_connections": server.timed_out_connections,
        "timed_out_streams": sum(c.timed_out_streams
                                 for c in server.connections),
        "sim_time_s": sim.now,
        "processed_events": sim.processed_events,
    }


@dataclass
class DosPoint:
    """Aggregates at one (kind, profile, intensity) grid point."""

    kind: str
    profile: str
    intensity: float
    mean_goodput_pct: float
    detected_pct: float
    mean_detect_latency_s: Optional[float]
    exhausted_pct: float
    mean_shed: float
    mean_reaped: float
    n_ok: int
    n_cells: int


@dataclass
class DosEvalResult:
    """Attack kind x intensity x server-profile sweep."""

    n_per_point: int
    intensities: Tuple[float, ...]
    points: List[DosPoint]
    #: ``"kind=K profile=P intensity=I seed=S: reason"`` per failed cell.
    failures: List[str]
    telemetry: Optional[GridTelemetry] = None

    def table(self) -> ResultTable:
        table = ResultTable(
            "DOS: slow-HTTP/2 attacks vs hardening vs detection",
            ["kind", "profile", "intensity", "goodput (%)", "detected (%)",
             "latency (s)", "exhausted (%)", "shed", "reaped", "ok cells"])
        for point in self.points:
            table.add_row(
                point.kind, point.profile, point.intensity,
                point.mean_goodput_pct, point.detected_pct,
                (point.mean_detect_latency_s
                 if point.mean_detect_latency_s is not None else "-"),
                point.exhausted_pct, point.mean_shed, point.mean_reaped,
                f"{point.n_ok}/{point.n_cells}")
        return table

    def claims(self) -> List[Claim]:
        """Detection, hardening and exhaustion verdicts (the CI dos-smoke
        contract)."""
        top = max(self.intensities) if self.intensities else 0.0
        attack = [p for p in self.points if p.kind != CONTROL_KIND]
        controls = [p for p in self.points if p.kind == CONTROL_KIND]

        flagged = [p for p in attack if p.detected_pct >= 100.0]
        false_pos = [p for p in controls if p.detected_pct > 0.0]
        hardened = [p for p in attack if p.profile == "hardened"]
        min_goodput = min((p.mean_goodput_pct for p in hardened),
                          default=0.0)
        exhaust = [p for p in attack
                   if p.profile == "open" and p.intensity == top]
        exhausted = [p for p in exhaust if p.exhausted_pct >= 100.0]

        return [
            (f"dos: every attack cell flagged ({len(flagged)}/{len(attack)})",
             len(flagged) == len(attack)),
            (f"dos: no control false positives "
             f"({len(false_pos)}/{len(controls)})", not false_pos),
            (f"dos: hardened goodput >= 90% (min {min_goodput:.1f}%)",
             min_goodput >= 90.0),
            (f"dos: unhardened server exhausted at top intensity "
             f"({len(exhausted)}/{len(exhaust)})",
             len(exhausted) == len(exhaust)),
        ]


def run_dos_eval(n_per_point: int = 2, base_seed: int = 0,
                 **grid: Any) -> DosEvalResult:
    """Sweep attack kind x intensity x profile, plus slow-client controls."""
    specs = []
    for profile in PROFILES:
        for i in range(n_per_point):
            seed = base_seed + i
            specs.append(RunSpec.make(CELL, seed, kind=CONTROL_KIND,
                                      profile=profile, intensity=0.0,
                                      attack=None))
            for kind in KINDS:
                for intensity in INTENSITIES:
                    spec = attack_spec(kind, intensity)
                    specs.append(RunSpec.make(
                        CELL, seed, kind=kind, profile=profile,
                        intensity=intensity,
                        attack=spec.to_jsonable()))
    runs = run_grid(specs, strict=False, **grid)

    by_point: Dict[Tuple[str, str, float], List[dict]] = {}
    attempted: Dict[Tuple[str, str, float], int] = {}
    failures: List[str] = []
    for result in runs:
        kwargs = result.spec.kwargs()
        key = (kwargs["kind"], kwargs["profile"], kwargs["intensity"])
        attempted[key] = attempted.get(key, 0) + 1
        if result.failed:
            failures.append(f"kind={key[0]} profile={key[1]} "
                            f"intensity={key[2]} "
                            f"seed={result.spec.seed}: {result.error}")
        else:
            by_point.setdefault(key, []).append(result.metrics)

    points: List[DosPoint] = []
    for key in sorted(attempted):
        kind, profile, intensity = key
        cells = by_point.get(key, [])
        n = max(1, len(cells))
        latencies = [c["detect_latency_s"] for c in cells
                     if c["detect_latency_s"] is not None]
        points.append(DosPoint(
            kind=kind, profile=profile, intensity=intensity,
            mean_goodput_pct=sum(c["goodput_pct"] for c in cells) / n,
            detected_pct=100.0 * sum(c["detected"] for c in cells) / n,
            mean_detect_latency_s=(sum(latencies) / len(latencies)
                                   if latencies else None),
            exhausted_pct=100.0 * sum(c["exhausted"] for c in cells) / n,
            mean_shed=sum(c["shed_connections"] for c in cells) / n,
            mean_reaped=sum(c["reaped_connections"] for c in cells) / n,
            n_ok=len(cells),
            n_cells=attempted[key],
        ))
    return DosEvalResult(n_per_point=n_per_point,
                         intensities=INTENSITIES,
                         points=points, failures=failures,
                         telemetry=GridTelemetry().add(runs))
