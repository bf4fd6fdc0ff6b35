"""Middlebox and policy tests."""

import pytest

from repro.simnet import middlebox
from repro.simnet.engine import Simulator
from repro.simnet.link import Link, LinkConfig
from repro.simnet.middlebox import (
    CLIENT_TO_SERVER,
    SERVER_TO_CLIENT,
    Middlebox,
    NetemJitterPolicy,
    Policy,
    SpacingPolicy,
    TokenBucketPolicy,
    UniformDelayPolicy,
    WindowedDropPolicy,
)
from repro.simnet.packet import Packet
from repro.simnet.topology import StandardTopology, TopologyConfig
from repro.tcp.connection import TcpConfig, TcpStack
from repro.tcp.segment import RecordSlice, TcpSegment
from repro.tls.record import APPLICATION_DATA, TlsRecord


def make_app_packet(payload_len=100, content_type=APPLICATION_DATA):
    record = TlsRecord(content_type=content_type,
                       payload_len=payload_len - 21)
    seg = TcpSegment(src="client", dst="server", src_port=40000, dst_port=443,
                     seq=0, payload_len=record.wire_len,
                     slices=(RecordSlice(record, 0, record.wire_len),))
    return Packet(src="client", dst="server", size=54 + record.wire_len,
                  segment=seg)


def make_ack_packet():
    seg = TcpSegment(src="client", dst="server", src_port=40000, dst_port=443)
    return Packet(src="client", dst="server", size=54, segment=seg)


class MboxRig:
    """Middlebox with both directions wired to capture sinks."""

    def __init__(self, seed=0):
        self.sim = Simulator(seed=seed)
        fast = LinkConfig(bandwidth_bps=1e12, propagation_s=0.0)
        self.mbox = Middlebox(self.sim)
        self.in_c = Link(self.sim, "in_c", fast)
        self.out_s = Link(self.sim, "out_s", fast)
        self.in_s = Link(self.sim, "in_s", fast)
        self.out_c = Link(self.sim, "out_c", fast)
        self.mbox.attach(CLIENT_TO_SERVER, self.in_c, self.out_s)
        self.mbox.attach(SERVER_TO_CLIENT, self.in_s, self.out_c)
        self.server_arrivals = []
        self.client_arrivals = []
        self.out_s.attach(lambda p: self.server_arrivals.append((self.sim.now, p)))
        self.out_c.attach(lambda p: self.client_arrivals.append((self.sim.now, p)))

    def send_c2s(self, pkt, at=None):
        when = at if at is not None else self.sim.now
        self.sim.schedule_at(when, self.in_c.send, pkt)


def test_neutral_forwarding():
    rig = MboxRig()
    rig.send_c2s(make_app_packet())
    rig.sim.run()
    assert len(rig.server_arrivals) == 1


def test_uniform_delay_policy_shifts_everything_equally():
    rig = MboxRig()
    rig.mbox.add_policy(UniformDelayPolicy(0.05, direction=CLIENT_TO_SERVER))
    rig.send_c2s(make_app_packet(), at=0.0)
    rig.send_c2s(make_app_packet(), at=0.001)
    rig.sim.run()
    times = [t for t, _ in rig.server_arrivals]
    assert times[0] == pytest.approx(0.05, abs=1e-6)
    # Inter-arrival gap unchanged: the Section IV-A observation.
    assert times[1] - times[0] == pytest.approx(0.001, abs=1e-6)


def test_spacing_policy_enforces_min_gap():
    rig = MboxRig()
    rig.mbox.add_policy(SpacingPolicy(0.05, CLIENT_TO_SERVER))
    for i in range(4):
        rig.send_c2s(make_app_packet(), at=0.001 * i)
    rig.sim.run()
    times = [t for t, _ in rig.server_arrivals]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g >= 0.05 - 1e-9 for g in gaps)


def test_spacing_policy_ignores_pure_acks():
    rig = MboxRig()
    rig.mbox.add_policy(SpacingPolicy(0.05, CLIENT_TO_SERVER))
    rig.send_c2s(make_app_packet(), at=0.0)
    rig.send_c2s(make_app_packet(), at=0.001)   # held to +0.05
    rig.send_c2s(make_ack_packet(), at=0.002)   # passes unheld
    rig.sim.run()
    ack_times = [t for t, p in rig.server_arrivals
                 if p.segment.payload_len == 0]
    assert ack_times[0] == pytest.approx(0.002, abs=1e-6)


def test_spacing_policy_epoch_resets_after_idle_drain(monkeypatch):
    monkeypatch.setattr(middlebox, "SPACING_RESET_IDLE_S", 0.2)
    rig = MboxRig()
    policy = SpacingPolicy(0.1, CLIENT_TO_SERVER)
    rig.mbox.add_policy(policy)
    rig.send_c2s(make_app_packet(), at=0.0)
    rig.send_c2s(make_app_packet(), at=0.001)
    # Next burst long after the queue drained: released immediately.
    rig.send_c2s(make_app_packet(), at=1.0)
    rig.sim.run()
    times = [t for t, _ in rig.server_arrivals]
    assert times[2] == pytest.approx(1.0, abs=1e-6)
    assert policy.epochs == 2


def test_spacing_policy_no_epoch_reset_while_queue_full(monkeypatch):
    monkeypatch.setattr(middlebox, "SPACING_RESET_IDLE_S", 0.2)
    rig = MboxRig()
    policy = SpacingPolicy(0.5, CLIENT_TO_SERVER)
    rig.mbox.add_policy(policy)
    for i in range(4):
        rig.send_c2s(make_app_packet(), at=0.001 * i)
    # Arrives after an idle gap but while holds are still draining.
    rig.send_c2s(make_app_packet(), at=0.9)
    rig.sim.run()
    times = sorted(t for t, _ in rig.server_arrivals)
    # The late packet must queue behind the ramp (release ~2.0), not jump.
    assert times[-1] == pytest.approx(2.0, abs=1e-3)
    assert policy.epochs == 1


def test_spacing_policy_initial_gap():
    rig = MboxRig()
    rig.mbox.add_policy(SpacingPolicy(0.05, CLIENT_TO_SERVER,
                                      initial_gap_s=0.2, initial_count=2))
    for i in range(4):
        rig.send_c2s(make_app_packet(), at=0.001 * i)
    rig.sim.run()
    times = [t for t, _ in rig.server_arrivals]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps[0] == pytest.approx(0.2, abs=1e-3)
    assert gaps[1] == pytest.approx(0.2, abs=1e-3)
    assert gaps[2] == pytest.approx(0.05, abs=1e-3)


def test_netem_jitter_delays_within_band():
    rig = MboxRig()
    rig.mbox.add_policy(NetemJitterPolicy(rig.sim, 0.05, CLIENT_TO_SERVER,
                                          frac=0.5))
    for i in range(30):
        rig.send_c2s(make_app_packet(), at=0.0001 * i)
    rig.sim.run()
    delays = [t - 0.0001 * i for i, (t, _) in
              enumerate(sorted(rig.server_arrivals))]
    assert all(0.02 <= d <= 0.08 for d in delays)


def test_token_bucket_paces_to_rate():
    rig = MboxRig()
    rig.mbox.add_policy(TokenBucketPolicy(rate_bps=8e5))  # 100 kB/s
    for _ in range(10):
        rig.send_c2s(make_app_packet(payload_len=1000))
    rig.sim.run()
    times = [t for t, _ in rig.server_arrivals]
    # 1054-byte packets at 100 kB/s: 10.54 ms apart.
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g == pytest.approx(0.01054, rel=0.05) for g in gaps)


def test_token_bucket_drops_over_backlog():
    rig = MboxRig()
    policy = TokenBucketPolicy(rate_bps=8e4, max_backlog_s=0.1)
    rig.mbox.add_policy(policy)
    for _ in range(20):
        rig.send_c2s(make_app_packet(payload_len=1000))
    rig.sim.run()
    assert policy.dropped > 0
    assert len(rig.server_arrivals) == 20 - policy.dropped


def test_windowed_drop_only_in_window_and_matched():
    rig = MboxRig()
    policy = WindowedDropPolicy(rig.sim, rate=1.0, direction=CLIENT_TO_SERVER,
                                start_at=0.0, end_at=0.5)
    rig.mbox.add_policy(policy)
    rig.send_c2s(make_app_packet(), at=0.1)      # dropped (in window)
    rig.send_c2s(make_ack_packet(), at=0.1)      # unmatched: passes
    rig.send_c2s(make_app_packet(), at=1.0)      # after window: passes
    rig.sim.run()
    assert len(rig.server_arrivals) == 2
    assert policy.dropped == 1


def test_drop_window_boundaries_exactly_at_release_time():
    """The window is half-open: a packet released exactly at
    ``start_at`` is dropped, one released exactly at ``end_at`` passes."""
    sim = Simulator(seed=0)
    policy = WindowedDropPolicy(sim, rate=1.0, direction=CLIENT_TO_SERVER,
                                start_at=0.5, end_at=1.0)
    view = make_app_packet().wire_view()
    assert not policy.process(view, CLIENT_TO_SERVER, 0.5 - 1e-9).drop
    assert policy.process(view, CLIENT_TO_SERVER, 0.5).drop
    assert policy.process(view, CLIENT_TO_SERVER, 1.0 - 1e-9).drop
    assert not policy.process(view, CLIENT_TO_SERVER, 1.0).drop
    assert policy.dropped == 2


def test_drop_window_applies_to_release_time_not_arrival():
    """An upstream delay shifts packets across the window boundary: the
    window acts on when the packet would hit the wire, not when it
    reached the middlebox."""
    rig = MboxRig()
    rig.mbox.add_policy(UniformDelayPolicy(0.3, direction=CLIENT_TO_SERVER))
    policy = rig.mbox.add_policy(WindowedDropPolicy(
        rig.sim, rate=1.0, direction=CLIENT_TO_SERVER,
        start_at=0.5, end_at=1.0))
    rig.send_c2s(make_app_packet(), at=0.3)   # released 0.6: inside
    rig.send_c2s(make_app_packet(), at=0.8)   # released 1.1: past the end
    rig.sim.run()
    assert policy.dropped == 1
    assert len(rig.server_arrivals) == 1
    assert rig.server_arrivals[0][0] == pytest.approx(1.1, abs=1e-6)


def test_tap_sees_drops():
    rig = MboxRig()
    rig.mbox.add_policy(WindowedDropPolicy(rig.sim, rate=1.0,
                                           direction=CLIENT_TO_SERVER,
                                           start_at=0.0, end_at=1.0))
    seen = []
    rig.mbox.taps.append(lambda now, d, view, dropped: seen.append(dropped))
    rig.send_c2s(make_app_packet())
    rig.sim.run()
    assert seen == [True]


def test_policy_removal_restores_forwarding():
    rig = MboxRig()
    policy = rig.mbox.add_policy(UniformDelayPolicy(10.0))
    rig.mbox.remove_policy(policy)
    rig.send_c2s(make_app_packet())
    rig.sim.run(until=1.0)
    assert len(rig.server_arrivals) == 1


def test_remove_missing_policy_is_noop():
    rig = MboxRig()
    rig.mbox.remove_policy(UniformDelayPolicy(1.0))


def test_policies_compose_delays():
    rig = MboxRig()
    rig.mbox.add_policy(UniformDelayPolicy(0.05, direction=CLIENT_TO_SERVER))
    rig.mbox.add_policy(UniformDelayPolicy(0.03, direction=CLIENT_TO_SERVER))
    rig.send_c2s(make_app_packet())
    rig.sim.run()
    assert rig.server_arrivals[0][0] == pytest.approx(0.08, abs=1e-6)


def test_direction_stats():
    rig = MboxRig()
    rig.send_c2s(make_app_packet())
    rig.sim.run()
    assert rig.mbox.stats[CLIENT_TO_SERVER].forwarded == 1
    assert rig.mbox.stats[SERVER_TO_CLIENT].forwarded == 0


def test_failed_middlebox_drops_everything_and_blinds_taps():
    rig = MboxRig()
    tap_times = []
    rig.mbox.taps.append(lambda now, d, view, dropped: tap_times.append(now))
    rig.send_c2s(make_app_packet(), at=0.1)
    rig.sim.schedule_at(0.2, rig.mbox.fail)
    rig.send_c2s(make_app_packet(), at=0.3)   # lost and unobserved
    rig.send_c2s(make_ack_packet(), at=0.35)  # even ACKs: the box IS the path
    rig.sim.schedule_at(0.4, rig.mbox.recover)
    rig.send_c2s(make_app_packet(), at=0.5)
    rig.sim.run()
    assert len(rig.server_arrivals) == 2
    stats = rig.mbox.stats[CLIENT_TO_SERVER]
    assert stats.forwarded == 2
    assert stats.dropped == 2
    assert stats.dropped_failed == 2
    assert tap_times == pytest.approx([0.1, 0.5], abs=1e-6)


def test_fail_and_recover_are_idempotent():
    rig = MboxRig()
    policy = rig.mbox.add_policy(UniformDelayPolicy(0.01))
    rig.mbox.fail()
    rig.mbox.fail()
    assert rig.mbox.crashes == 1
    assert rig.mbox._policies == []
    rig.mbox.recover()
    rig.mbox.recover()
    assert not rig.mbox.failed
    assert rig.mbox._policies == [policy]


def test_drop_window_outliving_the_connection_is_bounded():
    """A 100 % drop window that never ends: the sender's capped RTO
    backoff bounds the retransmissions, and aborting the connection
    inside the window cancels the timers so the event queue drains."""
    sim = Simulator(seed=0)
    topo = StandardTopology(sim, TopologyConfig(natural_jitter_mean_s=0.0,
                                                natural_loss_rate=0.0))
    client_tcp = TcpStack(sim, topo.client, TcpConfig())
    server_tcp = TcpStack(sim, topo.server, TcpConfig())
    server_tcp.listen(443, lambda conn: None)
    conn = client_tcp.connect("server", 443, lambda c: None)
    sim.run(until=0.5)
    assert conn.established

    topo.middlebox.add_policy(WindowedDropPolicy(
        sim, rate=1.0, direction=CLIENT_TO_SERVER,
        start_at=0.5, end_at=float("inf")))
    record = TlsRecord(content_type=APPLICATION_DATA, payload_len=979)
    sim.schedule_at(0.6, conn.send_record, record)
    sim.run(until=30.0)

    # Capped exponential backoff: a handful of retransmissions over
    # 30 s -- neither a storm nor silence -- and the RTO stays clamped.
    assert 3 <= conn.stats.retransmits_timeout <= 25
    assert conn.rto.rto <= conn.rto.max_rto

    # Abort with the window still open: the sim must drain instead of
    # retransmitting into the black hole forever.
    conn.abort()
    before = conn.stats.retransmits
    sim.run()
    assert conn.stats.retransmits == before
    assert conn.state == "closed"
