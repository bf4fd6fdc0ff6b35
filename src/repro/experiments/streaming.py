"""E8 (extension) -- streaming traffic (paper Section VII).

"We strongly believe that our attack technique can supplement the
existing attacks on HTTP/2 streaming."

Three conditions, each asking how much of the viewer's bitrate-rung
sequence an on-path adversary recovers from encrypted segment sizes:

* ``sequential`` -- the player keeps one segment in flight: transfers
  are naturally serialized and the passive estimator reads the ladder.
* ``pipelined`` -- the player keeps several segments in flight: HTTP/2
  multiplexes them and passive recovery degrades.
* ``pipelined + attack`` -- the adversary's request spacing serializes
  the pipelined player's segments again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core.adversary import Http2SerializationAttack
from repro.core.estimator import SizeEstimator
from repro.core.phases import jitter_only_config
from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import SessionRig
from repro.http2.client import Http2Client
from repro.http2.server import Http2Server, Http2ServerConfig
from repro.simnet.topology import TopologyConfig
from repro.website.streaming import StreamingSite, Viewer

#: Runner cell for one viewing session under one condition.
CELL = "repro.experiments.streaming:run_cell"


@dataclass
class StreamingPoint:
    """One condition's rung-recovery accuracy."""

    condition: str
    rung_accuracy_pct: float
    segments_completed: float
    rebuffer_events: float


@dataclass
class StreamingResult:
    n_sessions: int
    points: List[StreamingPoint]
    telemetry: Optional[GridTelemetry] = None

    def table(self) -> ResultTable:
        table = ResultTable(
            "E8 (extension): bitrate-ladder recovery from encrypted "
            "streaming traffic",
            ["player", "rung recovery (%)", "segments done", "rebuffers"])
        for point in self.points:
            table.add_row(point.condition, point.rung_accuracy_pct,
                          point.segments_completed, point.rebuffer_events)
        return table

    def claims(self) -> List[Claim]:
        """Multiplexing hides the ladder; the attack or the analyzer
        takes it back, and only the active attack shows in QoE."""
        by_name = {p.condition.split(" (")[0]: p for p in self.points}
        sequential = by_name["sequential player"]
        pipelined = by_name["pipelined player"]
        attacked = by_name["pipelined + spacing attack"]
        passive = by_name["pipelined + tail-residue analyzer"]
        return [
            ("sequential player: rungs recovered > 90 %",
             sequential.rung_accuracy_pct > 90.0),
            ("pipelined player: rungs recovered < 40 %",
             pipelined.rung_accuracy_pct < 40.0),
            ("pipelined + spacing attack: rungs recovered > 70 %",
             attacked.rung_accuracy_pct > 70.0),
            ("pipelined + tail-residue analyzer: rungs recovered > 70 %",
             passive.rung_accuracy_pct > 70.0),
            ("spacing attack rebuffers at least as often as the analyzer",
             attacked.rebuffer_events >= passive.rebuffer_events),
        ]


def _run_streaming_session(seed: int, prefetch: int,
                           attack_spacing_s: Optional[float]):
    rig = SessionRig(seed, TopologyConfig(), monitors=False)
    sim, topo = rig.sim, rig.topo
    site = StreamingSite()
    rig.watch(Http2Server(sim, topo.server, site, Http2ServerConfig()))
    if attack_spacing_s:
        attack = Http2SerializationAttack(
            sim, topo.middlebox, topo.trace,
            jitter_only_config(attack_spacing_s))
        attack.attach()
    client = rig.watch(Http2Client(sim, topo.client))
    viewer = Viewer(sim, client, site, prefetch=prefetch)
    viewer.start()
    rig.run_until(lambda: viewer.done, site.n_segments * 4.0 + 10.0,
                  step_s=1.0)
    return viewer.result(), topo.trace, site, sim


def _recover_rungs(trace, site: StreamingSite) -> List[int]:
    estimates = SizeEstimator().estimate_from_trace(trace)
    rungs = []
    for estimate in estimates:
        if estimate.size < 20_000:  # below the smallest rung
            continue
        rung = site.rung_of_size(estimate.size)
        if rung is not None:
            rungs.append(rung)
    return rungs


def _accuracy(truth: List[int], recovered: List[int]) -> float:
    if not truth:
        return 0.0
    matched = sum(1 for a, b in zip(truth, recovered) if a == b)
    return matched / len(truth)


def run_cell(seed: int, prefetch: int,
             attack_spacing_s: Optional[float]) -> dict:
    """One viewing session: the rungs the passive size estimator and the
    tail-residue analyzer each recover, plus the viewer's QoE."""
    session, trace, site, sim = _run_streaming_session(seed, prefetch,
                                                       attack_spacing_s)
    return {
        "accuracy": _accuracy(session.rung_history,
                              _recover_rungs(trace, site)),
        "analyzer_accuracy": _partial_rung_accuracy(session, trace, site),
        "completed": session.completed_segments,
        "rebuffers": session.rebuffer_events,
        "sim_time_s": sim.now,
        "processed_events": sim.processed_events,
    }


def run_streaming(n_sessions: int = 10, base_seed: int = 0,
                  **grid: Any) -> StreamingResult:
    """Run the three streaming conditions, and read the pipelined
    player's sessions with the tail-residue analyzer too."""
    conditions = (
        ("sequential player", 1, None),
        ("pipelined player (3 in flight)", 3, None),
        # Segments are tens-to-hundreds of KB, so the spacing that
        # serializes them is far larger than the 80 ms used for small
        # images: a 375 KB segment needs five slow-start round trips to
        # drain (~0.25 s with a 1.5x margin).
        ("pipelined + spacing attack", 3, 0.5),
    )
    specs = [RunSpec.make(CELL, base_seed + i, prefetch=prefetch,
                          attack_spacing_s=spacing)
             for _, prefetch, spacing in conditions
             for i in range(n_sessions)]
    runs = run_grid(specs, **grid)
    metrics = runs.metrics()
    by_condition = [metrics[k * n_sessions:(k + 1) * n_sessions]
                    for k in range(len(conditions))]

    def point(name: str, cells: List[dict], accuracy: str) -> StreamingPoint:
        return StreamingPoint(
            condition=name,
            rung_accuracy_pct=100.0 * sum(c[accuracy] for c in cells)
                              / n_sessions,
            segments_completed=sum(c["completed"] for c in cells)
                               / n_sessions,
            rebuffer_events=sum(c["rebuffers"] for c in cells) / n_sessions,
        )

    points = [point(name, cells, "accuracy")
              for (name, _, _), cells in zip(conditions, by_condition)]
    # The Section VII tail-residue analyzer, run passively against the
    # *pipelined* player: the VBR census pins down exact (rung, index)
    # pairs even inside interleaved runs.
    points.append(point("pipelined + tail-residue analyzer (passive)",
                        by_condition[1], "analyzer_accuracy"))
    return StreamingResult(n_sessions=n_sessions, points=points,
                           telemetry=GridTelemetry().add(runs))


def _partial_rung_accuracy(session, trace, site: StreamingSite) -> float:
    from repro.core.deinterleave import PartialMultiplexAnalyzer
    from repro.simnet.middlebox import SERVER_TO_CLIENT

    census = list(site.segment_sizes.values())
    analyzer = PartialMultiplexAnalyzer(census)
    size_to_key = {size: key for key, size in site.segment_sizes.items()}
    matches = analyzer.analyze(trace.completed_records(SERVER_TO_CLIENT))
    rung_by_index = {}
    for match in matches:
        key = size_to_key.get(match.size)
        if key is not None:
            rung, index = key
            rung_by_index.setdefault(index, rung)
    truth = session.rung_history
    if not truth:
        return 0.0
    hits = sum(1 for index, rung in enumerate(truth)
               if rung_by_index.get(index) == rung)
    return hits / len(truth)
