"""E9 (extension) -- does the serialization attack transfer to HTTP/3?

QUIC changes both sides of the fight:

* *for* the adversary: requests are still individual datagrams whose
  sizes give them away, so the spacing queue works unchanged;
* *against* the adversary: everything is encrypted (no TLS record
  headers, no TCP sequence numbers), so GET counting and object
  delimiting must work from packet sizes and timing alone, and there is
  no transport head-of-line blocking to amplify the drop burst.

The experiment runs the image-burst scenario (the 8 emblem images
requested back-to-back) over HTTP/3-lite, passively and under the
spacing attack, and reports sequence recovery plus ground-truth
serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core.estimator import ObjectEstimate
from repro.core.metrics import ServeSpanIndex
from repro.core.predictor import ObjectPredictor, SizeIdentityMap
from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import SessionRig
from repro.quic.h3 import H3Client, H3Server
from repro.simnet.middlebox import CLIENT_TO_SERVER, SpacingPolicy
from repro.simnet.packet import HEADER_OVERHEAD
from repro.simnet.topology import TopologyConfig
from repro.website.isidewith import (
    PARTIES,
    PARTY_IMAGE_SIZES,
    build_isidewith_site,
)

#: QUIC per-packet overhead visible to the estimator: link/IP/UDP header
#: share plus QUIC short header + AEAD tag + one STREAM frame header.
QUIC_PACKET_OVERHEAD = HEADER_OVERHEAD + 12 + 16 + 8
#: A full-sized H3 DATA packet on this stack.
FULL_QUIC_PACKET = QUIC_PACKET_OVERHEAD + 1150
#: A quiet gap this long between data packets delimits an object.
QUIC_TIME_GAP_S = 0.06
#: Datagrams below this size are ACKs or control, not object data.
QUIC_MIN_DATA_PACKET = 200

#: Runner cell for one image burst, passive or under the spacing attack.
CELL = "repro.experiments.quic_transfer:run_cell"


def quic_request_matcher(view) -> bool:
    """Spacing-policy matcher for an encrypted QUIC wire: request-sized
    datagrams (bigger than pure ACKs, smaller than padded handshake or
    full DATA packets).  Sizes are all the adversary has."""
    return 120 <= view.size <= 420


@dataclass
class QuicEstimate:
    """Recovered object size from packet sizes alone."""

    size: int
    end_time: float


class QuicPacketEstimator:
    """Sub-full-packet + time-gap delimiting over encrypted datagrams."""

    def estimate(self, trace) -> List[QuicEstimate]:
        from repro.simnet.middlebox import SERVER_TO_CLIENT
        estimates: List[QuicEstimate] = []
        current = 0
        last_time: Optional[float] = None
        for captured in trace.packets(SERVER_TO_CLIENT):
            size = captured.view.size
            if size < QUIC_MIN_DATA_PACKET:
                continue  # ACKs / control
            if (last_time is not None and current
                    and captured.time - last_time > QUIC_TIME_GAP_S):
                estimates.append(QuicEstimate(size=current,
                                              end_time=last_time))
                current = 0
            current += max(0, size - QUIC_PACKET_OVERHEAD)
            last_time = captured.time
            if size < FULL_QUIC_PACKET:
                estimates.append(QuicEstimate(size=current,
                                              end_time=captured.time))
                current = 0
        if current and last_time is not None:
            estimates.append(QuicEstimate(size=current, end_time=last_time))
        return estimates


@dataclass
class QuicPoint:
    condition: str
    sequence_accuracy_pct: float
    images_serialized_pct: float


@dataclass
class QuicTransferResult:
    n_sessions: int
    points: List[QuicPoint]
    telemetry: Optional[GridTelemetry] = None

    def table(self) -> ResultTable:
        table = ResultTable(
            "E9 (extension): the attack on HTTP/3-lite (fully encrypted wire)",
            ["condition", "order recovered (%)", "images serialized (%)"])
        for point in self.points:
            table.add_row(point.condition, point.sequence_accuracy_pct,
                          point.images_serialized_pct)
        return table

    def claims(self) -> List[Claim]:
        by_name = {p.condition.split(" (")[0]: p for p in self.points}
        passive, attacked = by_name["passive"], by_name["spacing attack"]
        return [
            ("passive: order recovered < 40 %",
             passive.sequence_accuracy_pct < 40.0),
            ("spacing attack: order recovered > 75 %",
             attacked.sequence_accuracy_pct > 75.0),
            ("spacing attack: images serialized > 85 %",
             attacked.images_serialized_pct > 85.0),
        ]


def run_cell(seed: int, spacing_s: Optional[float]) -> dict:
    """One image burst: the share of the order the adversary recovers
    from packet sizes, and the share of images serialized on the wire."""
    rig = SessionRig(seed, TopologyConfig(), monitors=False)
    sim, topo = rig.sim, rig.topo
    site = build_isidewith_site()
    server = H3Server(sim, topo.server, site)
    if spacing_s:
        topo.middlebox.add_policy(SpacingPolicy(
            min_gap_s=spacing_s, direction=CLIENT_TO_SERVER,
            match=quic_request_matcher))
    client = H3Client(sim, topo.client)

    rng = sim.rng("quic-plan")
    permutation = list(PARTIES)
    rng.shuffle(permutation)
    paths = ([("/api/results/summary", 0.0008)]
             + [(f"/img/emblem-{p}.png", rng.uniform(0.0002, 0.002))
                for p in permutation]
             + [("/js/share-widgets.js", 0.001)])
    completed: List[dict] = []

    def issue(index: int) -> None:
        if index >= len(paths):
            return
        path, _ = paths[index]
        client.request(path, on_complete=completed.append)
        next_gap = paths[index + 1][1] if index + 1 < len(paths) else 0.0
        sim.schedule(next_gap, issue, index + 1)

    client.connect(lambda: issue(0))
    rig.run_until(lambda: len(completed) >= len(paths), 25.0, step_s=0.5)

    as_objects = [ObjectEstimate(size=e.size, start_time=e.end_time,
                                 end_time=e.end_time, n_records=1)
                  for e in QuicPacketEstimator().estimate(topo.trace)]
    size_map = SizeIdentityMap({size: party for party, size
                                in PARTY_IMAGE_SIZES.items()})
    sequence = [p.label for p in ObjectPredictor(size_map).predict_burst(
        as_objects, list(PARTIES))]
    hits = sum(1 for a, b in zip(sequence, permutation) if a == b)
    spans = ServeSpanIndex(server.tx_log)
    return {
        "accuracy": hits / len(permutation),
        "serialized": sum(spans.serialized(site.image_path(p))
                          for p in permutation) / len(permutation),
        "sim_time_s": sim.now,
        "processed_events": sim.processed_events,
    }


def run_quic_transfer(n_sessions: int = 10, base_seed: int = 0,
                      **grid: Any) -> QuicTransferResult:
    """Passive vs spacing-attack over the HTTP/3-lite stack."""
    conditions = (("passive (multiplexed)", None),
                  ("spacing attack (80 ms)", 0.08))
    specs = [RunSpec.make(CELL, base_seed + i, spacing_s=spacing)
             for _, spacing in conditions for i in range(n_sessions)]
    runs = run_grid(specs, **grid)
    by_spacing = runs.group_by("spacing_s")
    points = [QuicPoint(
        condition=condition,
        sequence_accuracy_pct=100.0 * sum(c["accuracy"]
                                          for c in by_spacing[spacing])
                              / n_sessions,
        images_serialized_pct=100.0 * sum(c["serialized"]
                                          for c in by_spacing[spacing])
                              / n_sessions,
    ) for condition, spacing in conditions]
    return QuicTransferResult(n_sessions=n_sessions, points=points,
                              telemetry=GridTelemetry().add(runs))
