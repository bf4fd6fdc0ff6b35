"""Link model tests: serialization, propagation, loss, queues, FIFO."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.link import Link, LinkConfig, exponential_jitter
from repro.simnet.packet import Packet


def make_link(sim, **kwargs):
    link = Link(sim, "test", LinkConfig(**kwargs))
    arrivals = []
    link.attach(lambda pkt: arrivals.append((sim.now, pkt)))
    return link, arrivals


def test_propagation_delay_applied():
    sim = Simulator()
    link, arrivals = make_link(sim, bandwidth_bps=8e9, propagation_s=0.01)
    link.send(Packet(src="a", dst="b", size=1000))
    sim.run()
    # 1000 bytes at 8 Gbps = 1 microsecond serialization + 10 ms prop.
    assert arrivals[0][0] == pytest.approx(0.010001, abs=1e-6)


def test_serialization_time_scales_with_size():
    sim = Simulator()
    link, arrivals = make_link(sim, bandwidth_bps=8e6, propagation_s=0.0)
    link.send(Packet(src="a", dst="b", size=1000))
    sim.run()
    # 8000 bits at 8 Mbps = 1 ms.
    assert arrivals[0][0] == pytest.approx(0.001)


def test_back_to_back_packets_queue_behind_each_other():
    sim = Simulator()
    link, arrivals = make_link(sim, bandwidth_bps=8e6, propagation_s=0.0)
    for _ in range(3):
        link.send(Packet(src="a", dst="b", size=1000))
    sim.run()
    times = [t for t, _ in arrivals]
    assert times == pytest.approx([0.001, 0.002, 0.003])


def test_random_loss_drops_packets():
    sim = Simulator(seed=3)
    link, arrivals = make_link(sim, loss_rate=0.5)
    sent = 400
    for _ in range(sent):
        link.send(Packet(src="a", dst="b", size=100))
    sim.run()
    assert link.stats.dropped_loss > 0
    assert len(arrivals) == sent - link.stats.dropped_loss
    # Roughly half should survive.
    assert 0.35 * sent < len(arrivals) < 0.65 * sent


def test_full_queue_tail_drops():
    sim = Simulator()
    link, arrivals = make_link(sim, bandwidth_bps=8e3,
                               buffer_bytes=2500)
    accepted = [link.send(Packet(src="a", dst="b", size=1000))
                for _ in range(5)]
    sim.run()
    assert accepted == [True, True, False, False, False]
    assert link.stats.dropped_queue == 3
    assert len(arrivals) == 2


def test_fifo_preserved_under_jitter_by_default():
    sim = Simulator(seed=1)
    link, arrivals = make_link(sim, bandwidth_bps=1e9,
                               jitter=exponential_jitter(0.01))
    packets = [Packet(src="a", dst="b", size=100) for _ in range(50)]
    for pkt in packets:
        link.send(pkt)
    sim.run()
    received_ids = [p.pid for _, p in arrivals]
    assert received_ids == [p.pid for p in packets]


def test_send_without_receiver_raises():
    sim = Simulator()
    link = Link(sim, "orphan", LinkConfig())
    with pytest.raises(RuntimeError):
        link.send(Packet(src="a", dst="b", size=100))


def test_stats_counters():
    sim = Simulator()
    link, _ = make_link(sim)
    for _ in range(4):
        link.send(Packet(src="a", dst="b", size=500))
    sim.run()
    assert link.stats.sent == 4
    assert link.stats.delivered == 4
    assert link.stats.bytes_delivered == 2000


def test_down_link_blackholes_new_packets():
    sim = Simulator()
    link, arrivals = make_link(sim)
    link.set_down()
    assert link.send(Packet(src="a", dst="b", size=100)) is False
    sim.run()
    assert arrivals == []
    assert link.stats.dropped_down == 1
    link.set_up()
    assert link.send(Packet(src="a", dst="b", size=100)) is True
    sim.run()
    assert len(arrivals) == 1


def test_set_down_and_set_up_are_idempotent():
    sim = Simulator()
    link, _ = make_link(sim)
    link.set_down()
    link.set_down()
    assert not link.up
    link.set_up()
    link.set_up()
    assert link.up
    link.set_down()
    assert not link.up


def test_in_flight_packets_survive_a_flap():
    # The bits are already on the wire when the link goes down: the
    # packet still arrives, only later offers are blackholed.
    sim = Simulator()
    link, arrivals = make_link(sim, bandwidth_bps=8e6, propagation_s=0.05)
    link.send(Packet(src="a", dst="b", size=1000))  # arrives at 0.051
    sim.schedule_at(0.01, link.set_down)
    sim.run()
    assert len(arrivals) == 1
    assert link.stats.dropped_down == 0
    assert link.stats.delivered == 1


def test_queue_depth_tracks_backlog():
    sim = Simulator()
    link, _ = make_link(sim, bandwidth_bps=8e3)
    link.send(Packet(src="a", dst="b", size=1000))
    link.send(Packet(src="a", dst="b", size=1000))
    assert link.queue_depth_bytes() == 2000
    sim.run()
    assert link.queue_depth_bytes() == 0
