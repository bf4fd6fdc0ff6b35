"""QUIC connection internals and adversary reset-detector units."""

import pytest

from repro.quic.connection import (MAX_PAYLOAD, QuicConfig, QuicConnection,
                                   QuicEndpoint)
from repro.quic.frames import AckFrame, QuicPacket, StreamFrame
from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.link import Link, LinkConfig


class PairRig:
    """Two QUIC endpoints over a clean direct link."""

    def __init__(self, seed=0):
        self.sim = Simulator(seed=seed)
        self.a = Host(self.sim, "a")
        self.b = Host(self.sim, "b")
        cfg = LinkConfig(propagation_s=0.01)
        ab = Link(self.sim, "ab", cfg)
        ba = Link(self.sim, "ba", cfg)
        self.a.attach_links(ab, ba)
        self.b.attach_links(ba, ab)
        self.ea = QuicEndpoint(self.sim, self.a)
        self.eb = QuicEndpoint(self.sim, self.b)
        self.server_conn = None
        self.eb.listen(lambda c: setattr(self, "server_conn", c))
        self.client_conn = self.ea.connect("b", lambda c: None)

    def run(self, duration=1.0):
        self.sim.run(until=self.sim.now + duration)


def test_handshake_one_rtt_ish():
    rig = PairRig()
    rig.run(0.5)
    assert rig.client_conn.established
    assert rig.server_conn is not None and rig.server_conn.established


def test_stream_bytes_delivered_in_order():
    rig = PairRig()
    rig.run(0.5)
    received = []
    rig.server_conn.on_stream_frame = lambda f: received.append(
        (f.stream_id, f.offset, f.length))
    for length in (500, 700, 300):
        rig.client_conn.send_stream_frame(0, length, False, None)
    rig.run(0.5)
    assert received == [(0, 0, 500), (0, 500, 700), (0, 1200, 300)]


def test_streams_do_not_block_each_other():
    rig = PairRig()
    rig.run(0.5)
    received = []
    rig.server_conn.on_stream_frame = lambda f: received.append(f.stream_id)
    rig.client_conn.send_stream_frame(0, 400, False, None)
    rig.client_conn.send_stream_frame(4, 400, False, None)
    rig.run(0.5)
    assert set(received) == {0, 4}


def test_rtt_estimated_from_acks():
    rig = PairRig()
    rig.run(0.5)
    rig.client_conn.send_stream_frame(0, 1000, False, None)
    rig.run(0.5)
    assert rig.client_conn.rtt.srtt == pytest.approx(0.02, abs=0.01)


def test_cwnd_limits_flight():
    rig = PairRig()
    rig.run(0.5)
    for _ in range(200):
        rig.client_conn.send_stream_frame(0, 1100, False, None)
    conn = rig.client_conn
    assert conn._bytes_in_flight <= conn.cc.cwnd + 2 * MAX_PAYLOAD
    rig.run(5.0)
    assert conn.queued_bytes == 0


def test_packet_threshold_loss_detection():
    rig = PairRig()
    rig.run(0.5)
    conn = rig.client_conn
    conn.send_stream_frame(0, 1000, False, None)
    # Fabricate: the packet we just sent is skipped while 4 later packet
    # numbers are acked -> declared lost and retransmitted.
    lost_number = max(conn._unacked)
    for _ in range(4):
        conn.send_stream_frame(0, 600, False, None)
    later = [n for n in conn._unacked if n != lost_number]
    conn._on_ack(AckFrame(largest_acked=max(later), acked=tuple(later)))
    assert conn.stats_retransmissions >= 1


def test_pto_fires_without_acks():
    rig = PairRig()
    rig.run(0.5)
    conn = rig.client_conn

    # Sever the return path: drop the peer's ACKs by breaking delivery.
    rig.eb.handle_packet = lambda packet: None
    conn.send_stream_frame(0, 900, False, None)
    rig.run(2.0)
    assert conn.stats_retransmissions >= 1


def test_reset_stream_purges_queue():
    rig = PairRig()
    rig.run(0.5)
    conn = rig.client_conn
    resets = []
    rig.server_conn.on_reset_stream = resets.append
    # Fill beyond cwnd so frames sit queued, then reset the stream.
    for _ in range(300):
        conn.send_stream_frame(0, 1100, False, None)
    conn.reset_stream(0)
    assert all(not (isinstance(f, StreamFrame) and f.stream_id == 0)
               for f in conn._frame_queue)
    rig.run(3.0)
    assert resets == [0]


def test_reset_detector_requires_burst():
    """The adversary's RST_STREAM detector wants >=3 control records
    within half a second during the disrupt phase."""
    from repro.core.adversary import Http2SerializationAttack
    from repro.core.phases import AttackConfig, AttackPhase
    from repro.simnet.topology import StandardTopology

    sim = Simulator()
    topo = StandardTopology(sim)
    attack = Http2SerializationAttack(sim, topo.middlebox, topo.trace,
                                      AttackConfig())
    attack.attach()
    attack._enter_phase(AttackPhase.DISRUPT)
    attack._disrupt_started = 0.0
    sim.run(until=2.0)
    # Two lone control sightings: no trigger.
    attack._maybe_detect_reset(2.0)
    attack.monitor.control_times.append(2.0)
    attack._maybe_detect_reset(2.1)
    attack.monitor.control_times.append(2.1)
    assert attack.phase == AttackPhase.DISRUPT
    # Third within the window: serialize begins.
    attack.monitor.control_times.append(2.2)
    attack._maybe_detect_reset(2.2)
    assert attack.phase == AttackPhase.SERIALIZE
