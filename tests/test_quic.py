"""QUIC-lite substrate and HTTP/3 transfer tests."""

import pytest

from repro.experiments.quic_transfer import (
    QuicPacketEstimator,
    quic_request_matcher,
    run_quic_transfer,
)
from repro.quic.connection import QuicConfig, QuicConnection, QuicEndpoint
from repro.quic.frames import AckFrame, QuicPacket, StreamFrame
from repro.quic.h3 import H3Client, H3Server
from repro.simnet.engine import Simulator
from repro.simnet.link import LinkConfig
from repro.simnet.topology import StandardTopology, TopologyConfig
from repro.website.objects import WebObject
from repro.website.sitemap import Site


class QuicRig:
    def __init__(self, seed=0, loss=0.0):
        self.sim = Simulator(seed=seed)
        self.topo = StandardTopology(self.sim, TopologyConfig(
            natural_loss_rate=loss))
        self.site = Site("q", "q.example")
        for path, size in {"/a": 40_000, "/b": 25_000, "/c": 900}.items():
            self.site.add(WebObject(path=path, size=size, cacheable=False))
        self.server = H3Server(self.sim, self.topo.server, self.site)
        self.client = H3Client(self.sim, self.topo.client)
        self.ready = False
        self.client.connect(lambda: setattr(self, "ready", True))

    def run(self, duration=1.0):
        self.sim.run(until=self.sim.now + duration)


def test_quic_packet_fully_encrypted_wire_view():
    packet = QuicPacket(frames=(StreamFrame(stream_id=0, offset=0,
                                            length=100),))
    tcp_view, records, retx = packet.wire_view()
    assert tcp_view is None
    assert records == ()
    assert retx is False


def test_handshake_establishes():
    rig = QuicRig()
    rig.run(1.0)
    assert rig.ready


def test_h3_get_roundtrip():
    rig = QuicRig()
    rig.run(1.0)
    done = []
    state = rig.client.request("/a", on_complete=done.append)
    rig.run(3.0)
    assert done and state["complete"]
    assert state["bytes"] == 40_000


def test_h3_404_completes_with_zero_bytes():
    rig = QuicRig()
    rig.run(1.0)
    state = rig.client.request("/missing")
    rig.run(2.0)
    assert state["complete"] and state["bytes"] == 0


def test_concurrent_streams_interleave():
    rig = QuicRig()
    rig.run(1.0)
    rig.client.request("/a")
    rig.client.request("/b")
    rig.run(3.0)
    data = [e.object_path for e in rig.server.tx_log if e.is_data]
    first_b = data.index("/b")
    last_a = len(data) - 1 - data[::-1].index("/a")
    assert first_b < last_a  # round-robin interleaving


def test_transfer_survives_loss():
    rig = QuicRig(seed=3, loss=0.05)
    rig.run(3.0)
    done = []
    rig.client.request("/a", on_complete=done.append)
    rig.run(20.0)
    assert done and done[0]["bytes"] == 40_000
    conn = rig.server.connections[0]
    assert conn.stats_retransmissions > 0


def test_no_cross_stream_blocking():
    """A lost packet of one stream must not delay another stream's
    delivery -- QUIC's core difference from TCP."""
    rig = QuicRig(seed=5, loss=0.08)
    rig.run(3.0)
    completions = []
    rig.client.request("/a", on_complete=lambda s: completions.append((
        s["path"], rig.sim.now)))
    rig.client.request("/c", on_complete=lambda s: completions.append((
        s["path"], rig.sim.now)))
    rig.run(20.0)
    assert {path for path, _ in completions} == {"/a", "/c"}
    by_path = dict(completions)
    # The tiny object is never stuck behind the big one's losses.
    assert by_path["/c"] <= by_path["/a"]


def test_reset_stream_stops_service():
    rig = QuicRig()
    rig.run(1.0)
    state = rig.client.request("/a")
    rig.run(0.04)
    rig.client.reset_stream(state)
    rig.run(3.0)
    assert not state["complete"]
    assert state["bytes"] < 40_000


def test_request_matcher_bands():
    class FakeView:
        def __init__(self, size):
            self.size = size

    assert quic_request_matcher(FakeView(170))      # a GET datagram
    assert not quic_request_matcher(FakeView(94))   # a pure ACK
    assert not quic_request_matcher(FakeView(1254))  # padded Initial / DATA


def test_packet_estimator_recovers_serialized_sizes():
    rig = QuicRig()
    rig.run(1.0)
    done = []
    rig.client.request("/a", on_complete=lambda s: done.append(1))
    rig.run(3.0)
    rig.client.request("/b", on_complete=lambda s: done.append(1))
    rig.run(3.0)
    estimates = QuicPacketEstimator().estimate(rig.topo.trace)
    sizes = [e.size for e in estimates if e.size > 5_000]
    assert any(abs(s - 40_000) < 600 for s in sizes)
    assert any(abs(s - 25_000) < 600 for s in sizes)


def test_quic_transfer_experiment_shape():
    result = run_quic_transfer(n_sessions=2)
    by_name = {p.condition.split(" (")[0]: p for p in result.points}
    assert by_name["spacing attack"].sequence_accuracy_pct \
        > by_name["passive"].sequence_accuracy_pct + 30
    assert by_name["spacing attack"].images_serialized_pct > 80.0
