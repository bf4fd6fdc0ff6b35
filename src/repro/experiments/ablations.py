"""Ablations of the design choices called out in DESIGN.md.

* **Scheduler** -- round-robin (the paper's multiplexing server) vs FIFO
  (multiplexing disabled, as most 2020 deployments ran) vs weighted.
  FIFO serialization makes even the *passive* size estimator work.
* **Duplicate-request service** -- the paper-observed re-serving of
  retransmitted GETs, on vs off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.phases import jitter_only_config
from repro.experiments.results import Claim, ResultTable
from repro.experiments.session import SessionConfig, run_session
from repro.http2.server import Http2ServerConfig
from repro.website.isidewith import HTML_PATH, IsideWithSite


@dataclass
class SchedulerPoint:
    """Baseline multiplexing under one scheduler."""

    scheduler: str
    html_nonmux_pct: float
    image_mean_degree_pct: float


@dataclass
class SchedulerAblation:
    n_per_point: int
    points: List[SchedulerPoint]

    def table(self) -> ResultTable:
        table = ResultTable(
            "Ablation: server multiplexing scheduler (no adversary)",
            ["scheduler", "HTML non-mux (%)", "image mean degree (%)"])
        for point in self.points:
            table.add_row(point.scheduler, point.html_nonmux_pct,
                          point.image_mean_degree_pct)
        return table

    def claims(self) -> List[Claim]:
        """FIFO kills image multiplexing; round-robin sustains it."""
        by_name = {p.scheduler: p.image_mean_degree_pct for p in self.points}
        if not {"round-robin", "fifo", "weighted"} <= by_name.keys():
            return [("run covers round-robin, fifo and weighted", False)]
        return [
            ("fifo: image mean degree < 30 %", by_name["fifo"] < 30.0),
            ("round-robin: image mean degree > 40 %",
             by_name["round-robin"] > 40.0),
            ("weighted: image mean degree > 40 %",
             by_name["weighted"] > 40.0),
        ]


def run_scheduler_ablation(n_per_point: int = 30, base_seed: int = 0,
                           schedulers=("round-robin", "fifo", "weighted"),
                           ) -> SchedulerAblation:
    """Baseline (no adversary) multiplexing per scheduler."""
    points: List[SchedulerPoint] = []
    for scheduler in schedulers:
        nonmux = 0
        observed = 0
        image_degrees: List[float] = []
        for i in range(n_per_point):
            server = Http2ServerConfig(scheduler=scheduler)
            result = run_session(SessionConfig(seed=base_seed + i,
                                               server=server))
            try:
                nonmux += result.degree(HTML_PATH) == 0.0
                observed += 1
            except KeyError:
                pass
            for party in result.permutation:
                try:
                    image_degrees.append(
                        result.degree(IsideWithSite.image_path(party)))
                except KeyError:
                    pass
        points.append(SchedulerPoint(
            scheduler=scheduler,
            html_nonmux_pct=100.0 * nonmux / max(1, observed),
            image_mean_degree_pct=100.0 * sum(image_degrees)
                                  / max(1, len(image_degrees)),
        ))
    return SchedulerAblation(n_per_point=n_per_point, points=points)


@dataclass
class DupServePoint:
    """Retransmission-driven duplicate serves, mode on vs off."""

    serve_duplicates: bool
    duplicate_serves_per_load: float
    retransmissions_per_load: float


@dataclass
class DupServeAblation:
    n_per_point: int
    jitter_s: float
    points: List[DupServePoint]

    def table(self) -> ResultTable:
        table = ResultTable(
            "Ablation: duplicate-GET service under jitter",
            ["serve duplicates", "dup serves/load", "retx/load"])
        for point in self.points:
            table.add_row("on" if point.serve_duplicates else "off",
                          point.duplicate_serves_per_load,
                          point.retransmissions_per_load)
        return table

    def claims(self) -> List[Claim]:
        by_mode = {p.serve_duplicates: p.duplicate_serves_per_load
                   for p in self.points}
        return [
            ("exact-once service: no duplicate serves", by_mode[False] == 0.0),
            ("paper behaviour serves at least as many duplicates",
             by_mode[True] >= by_mode[False]),
        ]


def legacy_tcp_config(**kwargs):
    """A 2020-era loss-recovery stack: no TLP, no RACK pipeline, textbook
    exponential backoff.  Used to show that the paper's observed
    fragility (broken connections under the drop burst, decaying
    late-image success) is a property of the era's stacks."""
    from repro.tcp.connection import TcpConfig
    return TcpConfig(enable_tlp=False, enable_rack=False,
                     rto_backoff_cap=64, **kwargs)


@dataclass
class RecoveryPoint:
    """Attack outcome under one TCP recovery generation."""

    stack: str
    html_serialized_pct: float
    broken_pct: float
    mean_duration_s: float
    image_success_pct: float


@dataclass
class RecoveryAblation:
    n_per_point: int
    points: List[RecoveryPoint]

    def table(self) -> ResultTable:
        table = ResultTable(
            "Ablation: TCP loss-recovery generation under the full attack",
            ["stack", "HTML serialized (%)", "broken (%)",
             "load time (s)", "image sequence (%)"])
        for point in self.points:
            table.add_row(point.stack, point.html_serialized_pct,
                          point.broken_pct, point.mean_duration_s,
                          point.image_success_pct)
        return table

    def claims(self) -> List[Claim]:
        """The attack works on both generations; legacy shows the
        paper's fragility."""
        by_stack = {p.stack: p for p in self.points}
        modern, legacy = by_stack["modern"], by_stack["legacy-2020"]
        return [
            ("modern: image sequence > 60 %", modern.image_success_pct > 60.0),
            ("legacy-2020: image sequence > 40 %",
             legacy.image_success_pct > 40.0),
            ("legacy-2020 breaks at least as often as modern",
             legacy.broken_pct >= modern.broken_pct),
            ("legacy-2020 loads slower than modern",
             legacy.mean_duration_s > modern.mean_duration_s),
        ]


def run_recovery_ablation(n_per_point: int = 20,
                          base_seed: int = 0) -> RecoveryAblation:
    """Modern (TLP/RACK/F-RTO) vs legacy recovery under the attack."""
    from repro.core.phases import AttackConfig
    from repro.experiments.evaluation import sequence_accuracy
    from repro.tcp.connection import TcpConfig

    points: List[RecoveryPoint] = []
    for stack, server_tcp, client_tcp in (
            ("modern", None, None),
            ("legacy-2020",
             legacy_tcp_config(deliver_duplicates=True,
                               initial_ssthresh_bytes=48_000),
             legacy_tcp_config())):
        serialized = 0
        broken = 0
        duration = 0.0
        sequence = 0.0
        for i in range(n_per_point):
            result = run_session(SessionConfig(
                seed=base_seed + i, attack=AttackConfig(),
                server_tcp=server_tcp, client_tcp=client_tcp))
            serialized += result.serialized(HTML_PATH)
            broken += result.broken
            duration += result.duration_s
            sequence += sequence_accuracy(result)
        points.append(RecoveryPoint(
            stack=stack,
            html_serialized_pct=100.0 * serialized / n_per_point,
            broken_pct=100.0 * broken / n_per_point,
            mean_duration_s=duration / n_per_point,
            image_success_pct=100.0 * sequence / n_per_point,
        ))
    return RecoveryAblation(n_per_point=n_per_point, points=points)


def run_dupserve_ablation(n_per_point: int = 30, base_seed: int = 0,
                          jitter_s: float = 0.1) -> DupServeAblation:
    """High-jitter runs with duplicate service on vs off."""
    points: List[DupServePoint] = []
    for mode in (True, False):
        dup_serves = 0
        retx = 0
        for i in range(n_per_point):
            server = Http2ServerConfig(serve_duplicate_requests=mode)
            result = run_session(SessionConfig(
                seed=base_seed + i, server=server,
                attack=jitter_only_config(jitter_s)))
            dup_serves += sum(
                conn.duplicate_requests_served
                for conn in result.server.connections)
            retx += result.retransmissions
        points.append(DupServePoint(
            serve_duplicates=mode,
            duplicate_serves_per_load=dup_serves / n_per_point,
            retransmissions_per_load=retx / n_per_point,
        ))
    return DupServeAblation(n_per_point=n_per_point, jitter_s=jitter_s,
                            points=points)
