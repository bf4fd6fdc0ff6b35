"""TCP connection integration tests over a direct link rig."""

import pytest

from repro.simnet.link import LinkConfig
from repro.tcp import connection as tcp_connection
from repro.tcp.connection import TcpConfig
from repro.tls.record import APPLICATION_DATA, TlsRecord

from tests.conftest import make_rig


def record(n):
    return TlsRecord(content_type=APPLICATION_DATA, payload_len=n - 21)


class Endpoints:
    """Client/server connection pair with delivery capture."""

    def __init__(self, rig):
        self.rig = rig
        self.server_conn = None
        self.client_conn = None
        self.server_rx = []
        self.client_rx = []

        def on_accept(conn):
            self.server_conn = conn
            conn.on_deliver = lambda s, dup: self.server_rx.append((s, dup))

        rig.server_tcp.listen(443, on_accept)

        def on_established(conn):
            conn.on_deliver = lambda s, dup: self.client_rx.append((s, dup))

        self.client_conn = rig.client_tcp.connect("server", 443,
                                                  on_established)

    def received_bytes(self, side="server"):
        inbox = self.server_rx if side == "server" else self.client_rx
        return sum(s.length for slices, _ in inbox for s in slices)


def test_handshake_establishes_both_ends(rig):
    ends = Endpoints(rig)
    rig.run(1.0)
    assert ends.client_conn.established
    assert ends.server_conn is not None and ends.server_conn.established


def test_small_transfer_delivered_intact(rig):
    ends = Endpoints(rig)
    rig.run(1.0)
    ends.client_conn.send_record(record(500))
    rig.run(1.0)
    assert ends.received_bytes("server") == 500


def test_large_transfer_delivered_intact(rig):
    ends = Endpoints(rig)
    rig.run(1.0)
    total = 0
    for _ in range(100):
        ends.client_conn.send_record(record(1400))
        total += 1400
    rig.run(5.0)
    assert ends.received_bytes("server") == total


def test_bidirectional_transfer(rig):
    ends = Endpoints(rig)
    rig.run(1.0)
    ends.client_conn.send_record(record(300))
    rig.run(0.5)
    ends.server_conn.send_record(record(4200))
    rig.run(1.0)
    assert ends.received_bytes("server") == 300
    assert ends.received_bytes("client") == 4200


def test_transfer_survives_heavy_loss():
    rig = make_rig(seed=2, link=LinkConfig(propagation_s=0.01,
                                           loss_rate=0.10))
    ends = Endpoints(rig)
    rig.run(3.0)
    assert ends.client_conn.established
    total = 0
    for _ in range(60):
        ends.client_conn.send_record(record(1400))
        total += 1400
    rig.run(30.0)
    assert ends.received_bytes("server") == total
    stats = ends.client_conn.stats
    assert stats.retransmits > 0


def test_cwnd_limits_flight(rig):
    ends = Endpoints(rig)
    rig.run(1.0)
    for _ in range(200):
        ends.client_conn.send_record(record(1400))
    # Immediately after writing, flight cannot exceed cwnd.
    conn = ends.client_conn
    assert conn.flight_size <= conn.cc.cwnd
    rig.run(10.0)
    assert ends.received_bytes("server") == 200 * 1400


def test_fast_retransmit_triggers_on_dupacks():
    # A single dropped data segment among many: dup acks from the
    # receiver must trigger fast retransmit well before the RTO.
    rig = make_rig(seed=11, link=LinkConfig(propagation_s=0.01,
                                            loss_rate=0.02))
    ends = Endpoints(rig)
    rig.run(2.0)
    for _ in range(300):
        ends.client_conn.send_record(record(1400))
    rig.run(30.0)
    assert ends.received_bytes("server") == 300 * 1400
    assert ends.client_conn.stats.retransmits_fast > 0


def test_rtt_sampling_reasonable(rig):
    ends = Endpoints(rig)
    rig.run(1.0)
    ends.client_conn.send_record(record(1000))
    rig.run(1.0)
    # Path RTT is ~20 ms (2 x 10 ms propagation).
    assert ends.client_conn.rto.srtt == pytest.approx(0.02, abs=0.01)


def test_close_signals_peer(rig):
    ends = Endpoints(rig)
    rig.run(1.0)
    closed = []
    ends.server_conn.on_closed = lambda conn: closed.append(conn)
    ends.client_conn.close()
    rig.run(1.0)
    assert closed
    assert ends.client_conn.state == "closed"


def test_abort_is_silent(rig):
    ends = Endpoints(rig)
    rig.run(1.0)
    ends.client_conn.abort()
    rig.run(1.0)
    assert ends.client_conn.state == "closed"
    assert ends.server_conn.state == "established"


def test_send_on_closed_connection_raises(rig):
    ends = Endpoints(rig)
    rig.run(1.0)
    ends.client_conn.close()
    with pytest.raises(RuntimeError):
        ends.client_conn.send_record(record(100))


def test_syn_retransmission_on_lossy_path():
    rig = make_rig(seed=5, link=LinkConfig(propagation_s=0.01,
                                           loss_rate=0.35))
    ends = Endpoints(rig)
    rig.run(30.0)
    assert ends.client_conn.established


def test_duplicate_delivery_mode_resurfaces_retransmits():
    server_tcp = TcpConfig(deliver_duplicates=True)
    rig = make_rig(seed=0, server_tcp=server_tcp)
    ends = Endpoints(rig)
    rig.run(1.0)
    ends.client_conn.send_record(record(800))
    # Let the segment reach the server (one-way ~10 ms) but retransmit
    # before its ACK returns, so the copy arrives as a duplicate.
    rig.run(0.015)
    ends.client_conn._retransmit(ends.client_conn.snd_una, reason="timeout")
    rig.run(1.0)
    dups = [dup for _, dup in ends.server_rx if dup]
    assert dups, "duplicate copy should be re-delivered in paper mode"


def test_ephemeral_ports_unique(rig):
    first = rig.client_tcp.connect("server", 443, lambda c: None)
    second = rig.client_tcp.connect("server", 443, lambda c: None)
    assert first.local_port != second.local_port


def test_stack_ignores_unknown_segments(rig):
    from repro.simnet.packet import Packet
    from repro.tcp.segment import TcpSegment
    stray = TcpSegment(src="server", dst="client", src_port=9, dst_port=9)
    rig.client_tcp.handle_packet(Packet(src="server", dst="client", size=54,
                                        segment=stray))


# -- send-loop segment boundaries (exact pins) ---------------------------------

# The client starts in congestion avoidance (cwnd 3000 >= ssthresh 2000),
# so cwnd grows by mss*mss//cwnd per ACK and is rarely a multiple of the
# 1000-byte MSS; its 5500-byte peer window binds once cwnd passes it.
# Each record write leaves a backlog tail shorter than one MSS.  The
# MSS, the initial window and the peer window are stack constants, set
# for the run (the server only ACKs, so they shape the client's sends
# alone).
_PIN_CONFIG = dict(initial_ssthresh_bytes=2000)
_PIN_CONSTANTS = dict(MSS=1000, INIT_CWND_SEGMENTS=3, RWND_BYTES=5500)

_TRANSFER_SEGMENTS = [
    (0, 1000, 0), (1000, 1000, 0), (2000, 500, 0), (2500, 500, 0),
    (3000, 1000, 0), (4000, 333, 0), (4333, 1000, 0), (5333, 300, 0),
    (5633, 775, 0), (6408, 755, 0), (7163, 1000, 0), (8163, 240, 0),
    (8403, 560, 0), (8963, 1000, 0), (9963, 215, 0), (10178, 506, 0),
    (10684, 972, 0), (11656, 945, 0), (12601, 1000, 0), (13601, 62, 0),
    (13663, 240, 0), (13903, 560, 0), (14463, 1000, 0), (15463, 215, 0),
    (15678, 506, 0), (16184, 266, 0),
]

_IDLE_RESTART_SEGMENTS = [
    (0, 1000, 0), (1000, 1000, 0), (2000, 500, 0), (2500, 500, 0),
    (3000, 1000, 0), (4000, 333, 0), (4333, 1000, 0), (5333, 300, 0),
    (5633, 775, 0), (6408, 755, 0), (7163, 1000, 0), (8163, 240, 0),
    (8403, 560, 0), (8963, 1000, 0), (9963, 215, 0), (10178, 506, 0),
    (10684, 972, 0), (11656, 1000, 0), (12656, 945, 0), (13601, 302, 0),
    (13903, 560, 0), (14463, 1000, 0), (15463, 215, 0), (15678, 506, 0),
    (16184, 266, 0), (13601, 302, 1), (16184, 266, 1), (16450, 1000, 0),
    (17450, 1000, 0), (17450, 1000, 1), (16450, 1000, 1), (18450, 1000, 0),
    (19450, 1000, 0), (20450, 1000, 0), (21450, 500, 0), (21950, 150, 0),
    (21950, 150, 1),
]


def _scripted_transfer(monkeypatch, seed, loss_rate, idle_phase):
    """Run the scripted client transfer; return the client's data
    segments as ``(seq, payload_len, retx_count)``, the ``(flight,
    cwnd)`` after each send, and the times the idle restart fired."""
    for name, value in _PIN_CONSTANTS.items():
        monkeypatch.setattr(tcp_connection, name, value)
    rig = make_rig(seed=seed,
                   link=LinkConfig(propagation_s=0.01, loss_rate=loss_rate),
                   client_tcp=TcpConfig(**_PIN_CONFIG))
    rig.server_tcp.listen(443, lambda conn: None)
    conn = rig.client_tcp.connect("server", 443, lambda conn: None)
    sent, windows, restarts = [], [], []

    def tap(c, direction, seg):
        if c is conn and direction == "send" and seg.payload_len:
            sent.append((seg.seq, seg.payload_len, seg.retx_count))
            windows.append((conn.snd_nxt - conn.snd_una, conn.cc.cwnd))

    rig.client_tcp.taps.append(tap)
    idle_restart = conn.cc.on_idle_restart

    def counted_idle_restart():
        restarts.append(rig.sim.now)
        idle_restart()

    conn.cc.on_idle_restart = counted_idle_restart
    rig.run(1.0)
    for size in (2500, 4000, 1700, 6000, 2250):
        conn.send_record(record(size))
    rig.run(3.0)
    if idle_phase:
        for size in (3000, 2650):
            conn.send_record(record(size))
        rig.run(3.0)
    assert conn.snd_una == conn.send_buffer.total_written
    return sent, windows, restarts


def test_send_loop_segment_boundaries_pinned(monkeypatch):
    sent, windows, restarts = _scripted_transfer(monkeypatch, 0, 0.0,
                                                 idle_phase=False)
    assert sent == _TRANSFER_SEGMENTS
    assert restarts == []
    assert any(cwnd % 1000 for _, cwnd in windows)
    # The peer window, not cwnd, caps the flight.
    assert (5500, 5798) in windows


def test_send_loop_idle_restart_and_recovery_pinned(monkeypatch):
    sent, _, restarts = _scripted_transfer(monkeypatch, 3, 0.05,
                                           idle_phase=True)
    assert sent == _IDLE_RESTART_SEGMENTS
    assert restarts[0] == 4.0
