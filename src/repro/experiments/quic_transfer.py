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
from typing import List, Optional

from repro.core.metrics import object_serialized
from repro.core.predictor import ObjectPredictor, SizeIdentityMap
from repro.experiments.results import Claim, ResultTable
from repro.quic.h3 import H3Client, H3Server
from repro.simnet.engine import Simulator
from repro.simnet.middlebox import CLIENT_TO_SERVER, SpacingPolicy
from repro.simnet.packet import HEADER_OVERHEAD
from repro.simnet.topology import StandardTopology
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

    def __init__(self, time_gap_s: float = 0.06,
                 min_packet: int = 200):
        self.time_gap_s = time_gap_s
        self.min_packet = min_packet

    def estimate(self, trace) -> List[QuicEstimate]:
        from repro.simnet.middlebox import SERVER_TO_CLIENT
        estimates: List[QuicEstimate] = []
        current = 0
        last_time: Optional[float] = None
        for captured in trace.packets(SERVER_TO_CLIENT):
            size = captured.view.size
            if size < self.min_packet:
                continue  # ACKs / control
            if (last_time is not None and current
                    and captured.time - last_time > self.time_gap_s):
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


def _run_session(seed: int, spacing_s: Optional[float]):
    sim = Simulator(seed=seed)
    topo = StandardTopology(sim)
    site = build_isidewith_site()
    server = H3Server(sim, topo.server, site)
    if spacing_s:
        topo.middlebox.add_policy(SpacingPolicy(
            min_gap_s=spacing_s, direction=CLIENT_TO_SERVER,
            match=quic_request_matcher))
    client = H3Client(sim, topo.client, "server")

    rng = sim.rng("quic-plan")
    permutation = list(PARTIES)
    rng.shuffle(permutation)
    paths = ([("/api/results/summary", 0.0008)]
             + [(f"/img/emblem-{p}.png", rng.uniform(0.0002, 0.002))
                for p in permutation]
             + [("/js/share-widgets.js", 0.001)])
    done = {"count": 0}

    def issue(index: int) -> None:
        if index >= len(paths):
            return
        path, _ = paths[index]
        client.request(path, on_complete=lambda s: done.__setitem__(
            "count", done["count"] + 1))
        next_gap = paths[index + 1][1] if index + 1 < len(paths) else 0.0
        sim.schedule(next_gap, issue, index + 1)

    client.connect(lambda: issue(0))
    while done["count"] < len(paths) and sim.now < 25.0:
        sim.run(until=sim.now + 0.5)
    sim.run(until=sim.now + 0.3)
    return permutation, topo.trace, server, site


def run_quic_transfer(n_sessions: int = 10,
                      base_seed: int = 0) -> QuicTransferResult:
    """Passive vs spacing-attack over the HTTP/3-lite stack."""
    size_map = SizeIdentityMap({size: party for party, size
                                in PARTY_IMAGE_SIZES.items()})
    estimator = QuicPacketEstimator()
    points: List[QuicPoint] = []
    for condition, spacing in (("passive (multiplexed)", None),
                               ("spacing attack (80 ms)", 0.08)):
        accuracy = 0.0
        serialized = 0.0
        for i in range(n_sessions):
            permutation, trace, server, site = _run_session(
                base_seed + i, spacing)
            estimates = estimator.estimate(trace)
            from repro.core.estimator import ObjectEstimate
            as_objects = [ObjectEstimate(size=e.size, start_time=e.end_time,
                                         end_time=e.end_time, n_records=1)
                          for e in estimates]
            predictor = ObjectPredictor(size_map)
            sequence = [p.label for p in predictor.predict_burst(
                as_objects, list(PARTIES))]
            hits = sum(1 for a, b in zip(sequence, permutation) if a == b)
            accuracy += hits / len(permutation)
            serialized += sum(
                object_serialized(server.tx_log, site.image_path(p))
                for p in permutation) / len(permutation)
        points.append(QuicPoint(
            condition=condition,
            sequence_accuracy_pct=100.0 * accuracy / n_sessions,
            images_serialized_pct=100.0 * serialized / n_sessions,
        ))
    return QuicTransferResult(n_sessions=n_sessions, points=points)
