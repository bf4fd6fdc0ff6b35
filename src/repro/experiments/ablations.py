"""Ablations of the design choices called out in DESIGN.md.

* **Scheduler** -- round-robin (the paper's multiplexing server) vs FIFO
  (multiplexing disabled, as most 2020 deployments ran) vs weighted.
  FIFO serialization makes even the *passive* size estimator work.
* **Duplicate-request service** -- the paper-observed re-serving of
  retransmitted GETs, on vs off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core.phases import AttackConfig, jitter_only_config
from repro.experiments import baseline
from repro.experiments.evaluation import sequence_accuracy
from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import SessionConfig, run_session
from repro.http2.server import Http2ServerConfig
from repro.tcp.connection import CACHED_SSTHRESH_BYTES
from repro.website.isidewith import HTML_PATH

#: Runner cells: one jittered load with duplicate service on or off, and
#: one attacked load on one TCP recovery generation.  The scheduler
#: ablation runs the baseline's clean-load cell.
DUPSERVE_CELL = "repro.experiments.ablations:run_dupserve_cell"
RECOVERY_CELL = "repro.experiments.ablations:run_recovery_cell"

#: Server schedulers the scheduler ablation compares.
SCHEDULERS = ("round-robin", "fifo", "weighted")
#: Request jitter of the duplicate-service ablation: high enough for
#: the retransmission storm.
DUPSERVE_JITTER_S = 0.1


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
    telemetry: Optional[GridTelemetry] = None

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
                           **grid: Any) -> SchedulerAblation:
    """Baseline (no adversary) multiplexing per scheduler."""
    specs = [RunSpec.make(baseline.CELL, base_seed + i, scheduler=scheduler)
             for scheduler in SCHEDULERS for i in range(n_per_point)]
    runs = run_grid(specs, **grid)
    by_scheduler = runs.group_by("scheduler")
    points: List[SchedulerPoint] = []
    for scheduler in SCHEDULERS:
        cells = by_scheduler[scheduler]
        html = [c["html_degree"] for c in cells
                if c["html_degree"] is not None]
        image_degrees = [d for c in cells for d in c["image_degrees"]]
        points.append(SchedulerPoint(
            scheduler=scheduler,
            html_nonmux_pct=100.0 * sum(d == 0.0 for d in html)
                            / max(1, len(html)),
            image_mean_degree_pct=100.0 * sum(image_degrees)
                                  / max(1, len(image_degrees)),
        ))
    return SchedulerAblation(n_per_point=n_per_point, points=points,
                             telemetry=GridTelemetry().add(runs))


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
    telemetry: Optional[GridTelemetry] = None

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
    telemetry: Optional[GridTelemetry] = None

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


def run_recovery_cell(seed: int, stack: str) -> dict:
    """One attacked load on one recovery generation; the spec names the
    stack because TCP configs are not JSON."""
    legacy = stack == "legacy-2020"
    result = run_session(SessionConfig(
        seed=seed, attack=AttackConfig(),
        server_tcp=legacy_tcp_config(
            deliver_duplicates=True,
            initial_ssthresh_bytes=CACHED_SSTHRESH_BYTES) if legacy else None,
        client_tcp=legacy_tcp_config() if legacy else None))
    return {
        "serialized": result.serialized(HTML_PATH),
        "broken": result.broken,
        "duration_s": result.duration_s,
        "sequence": sequence_accuracy(result),
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def run_recovery_ablation(n_per_point: int = 20, base_seed: int = 0,
                          **grid: Any) -> RecoveryAblation:
    """Modern (TLP/RACK/F-RTO) vs legacy recovery under the attack."""
    stacks = ("modern", "legacy-2020")
    specs = [RunSpec.make(RECOVERY_CELL, base_seed + i, stack=stack)
             for stack in stacks for i in range(n_per_point)]
    runs = run_grid(specs, **grid)
    by_stack = runs.group_by("stack")
    points: List[RecoveryPoint] = []
    for stack in stacks:
        cells = by_stack[stack]
        points.append(RecoveryPoint(
            stack=stack,
            html_serialized_pct=100.0 * sum(c["serialized"] for c in cells)
                                / n_per_point,
            broken_pct=100.0 * sum(c["broken"] for c in cells) / n_per_point,
            mean_duration_s=sum(c["duration_s"] for c in cells) / n_per_point,
            image_success_pct=100.0 * sum(c["sequence"] for c in cells)
                              / n_per_point,
        ))
    return RecoveryAblation(n_per_point=n_per_point, points=points,
                            telemetry=GridTelemetry().add(runs))


def run_dupserve_cell(seed: int, serve_duplicates: bool,
                      jitter_s: float) -> dict:
    """One jittered load with duplicate-GET service on or off."""
    server = Http2ServerConfig(serve_duplicate_requests=serve_duplicates)
    result = run_session(SessionConfig(seed=seed, server=server,
                                       attack=jitter_only_config(jitter_s)))
    return {
        "dup_serves": sum(conn.duplicate_requests_served
                          for conn in result.server.connections),
        "retransmissions": result.retransmissions,
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def run_dupserve_ablation(n_per_point: int = 30, base_seed: int = 0,
                          **grid: Any) -> DupServeAblation:
    """High-jitter runs with duplicate service on vs off."""
    modes = (True, False)
    specs = [RunSpec.make(DUPSERVE_CELL, base_seed + i, serve_duplicates=mode,
                          jitter_s=DUPSERVE_JITTER_S)
             for mode in modes for i in range(n_per_point)]
    runs = run_grid(specs, **grid)
    by_mode = runs.group_by("serve_duplicates")
    points = [DupServePoint(
        serve_duplicates=mode,
        duplicate_serves_per_load=sum(c["dup_serves"]
                                      for c in by_mode[mode]) / n_per_point,
        retransmissions_per_load=sum(c["retransmissions"]
                                     for c in by_mode[mode]) / n_per_point,
    ) for mode in modes]
    return DupServeAblation(n_per_point=n_per_point,
                            jitter_s=DUPSERVE_JITTER_S,
                            points=points,
                            telemetry=GridTelemetry().add(runs))
