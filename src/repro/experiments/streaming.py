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
from typing import List, Optional

from repro.core.adversary import Http2SerializationAttack
from repro.core.estimator import SizeEstimator
from repro.core.phases import jitter_only_config
from repro.experiments.results import Claim, ResultTable
from repro.http2.client import Http2Client
from repro.http2.server import Http2Server, Http2ServerConfig
from repro.simnet.engine import Simulator
from repro.simnet.topology import StandardTopology
from repro.tcp.connection import TcpConfig
from repro.website.streaming import StreamingSite, Viewer


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
    sim = Simulator(seed=seed)
    topo = StandardTopology(sim)
    site = StreamingSite()
    Http2Server(sim, topo.server, site,
                Http2ServerConfig(),
                tcp_config=TcpConfig(deliver_duplicates=True,
                                     initial_ssthresh_bytes=48_000))
    if attack_spacing_s:
        attack = Http2SerializationAttack(
            sim, topo.middlebox, topo.trace,
            jitter_only_config(attack_spacing_s))
        attack.attach()
    client = Http2Client(sim, topo.client, "server")
    viewer = Viewer(sim, client, site, prefetch=prefetch)
    viewer.start()
    limit = site.n_segments * 4.0 + 10.0
    while not viewer.done and sim.now < limit:
        sim.run(until=sim.now + 1.0)
    sim.run(until=sim.now + 0.3)
    return viewer.result(), topo.trace, site


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


def run_streaming(n_sessions: int = 10, base_seed: int = 0) -> StreamingResult:
    """Run the three streaming conditions."""
    conditions = (
        ("sequential player", 1, None),
        ("pipelined player (3 in flight)", 3, None),
        # Segments are tens-to-hundreds of KB, so the planner's spacing
        # for them is far larger than the 80 ms used for small images
        # (repro.core.planner.required_spacing_s(375_000, rtt) ~ 0.25 s).
        ("pipelined + spacing attack", 3, 0.5),
    )
    points: List[StreamingPoint] = []
    for name, prefetch, spacing in conditions:
        accuracy = 0.0
        completed = 0.0
        rebuffers = 0.0
        for i in range(n_sessions):
            session, trace, site = _run_streaming_session(
                base_seed + i, prefetch, spacing)
            recovered = _recover_rungs(trace, site)
            accuracy += _accuracy(session.rung_history, recovered)
            completed += session.completed_segments
            rebuffers += session.rebuffer_events
        points.append(StreamingPoint(
            condition=name,
            rung_accuracy_pct=100.0 * accuracy / n_sessions,
            segments_completed=completed / n_sessions,
            rebuffer_events=rebuffers / n_sessions,
        ))

    # The Section VII tail-residue analyzer, run passively against the
    # *pipelined* player: the VBR census pins down exact (rung, index)
    # pairs even inside interleaved runs.
    accuracy = 0.0
    completed = 0.0
    rebuffers = 0.0
    for i in range(n_sessions):
        session, trace, site = _run_streaming_session(base_seed + i, 3, None)
        accuracy += _partial_rung_accuracy(session, trace, site)
        completed += session.completed_segments
        rebuffers += session.rebuffer_events
    points.append(StreamingPoint(
        condition="pipelined + tail-residue analyzer (passive)",
        rung_accuracy_pct=100.0 * accuracy / n_sessions,
        segments_completed=completed / n_sessions,
        rebuffer_events=rebuffers / n_sessions,
    ))
    return StreamingResult(n_sessions=n_sessions, points=points)


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
