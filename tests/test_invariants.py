"""Runtime invariant monitors: catching laws we deliberately break,
staying silent (and byte-identical) on healthy runs, and the two
in-tree bugs the monitors flushed out."""

import pytest

from repro.core.phases import AttackConfig
from repro.experiments.session import SessionConfig, run_session
from repro.faults import FaultEvent, FaultPlan
from repro.http2 import flow_control
from repro.http2.hpack import HpackEncoder
from repro.invariants import (
    HpackViolation,
    InvariantViolation,
    LinkViolation,
    MonitorSuite,
    Violation,
)
from repro.simnet.engine import Simulator
from repro.simnet.link import Link, LinkConfig


def _noop():
    pass


# -- regression: the two bugs the monitors found in-tree --------------------

def test_clock_does_not_jump_past_pending_events_on_max_events_break():
    """``run(until=..., max_events=...)`` used to advance the clock to
    ``until`` even when unexecuted events remained before it; the next
    ``run`` then executed them with a backwards-moving clock."""
    sim = Simulator(seed=0)
    sim.schedule_at(1.0, _noop)
    sim.schedule_at(2.0, _noop)
    sim.run(until=5.0, max_events=1)
    assert sim.now < 2.0  # must not have jumped past the t=2.0 event
    observed = []
    sim.taps.append(lambda when, cb: observed.append(when))
    sim.run(until=5.0)
    assert observed == [2.0]
    assert sim.now == 5.0


def test_clock_still_advances_to_until_when_queue_is_drained():
    sim = Simulator(seed=0)
    sim.schedule_at(1.0, _noop)
    sim.run(until=5.0)
    assert sim.now == 5.0


def _wired_link(sim, config, delivered):
    link = Link(sim, "l", config)
    link.attach(delivered.append)
    return link


class _Packet:
    def __init__(self, size):
        self.size = size


def test_set_down_drops_packets_still_queued_behind_the_transmitter():
    """Queued-not-yet-serialized packets used to survive ``set_down``
    and arrive through a down link, contradicting the documented
    contract (their bits never reached the wire)."""
    sim = Simulator(seed=0)
    # 8 kbit/s: a 1000 B packet takes 1 s to serialize, so the second
    # packet is still queued when the link goes down at t=0.5.
    config = LinkConfig(bandwidth_bps=8_000.0, propagation_s=0.001)
    delivered = []
    link = _wired_link(sim, config, delivered)
    assert link.send(_Packet(1000))
    assert link.send(_Packet(1000))
    sim.schedule_at(0.5, link.set_down)
    sim.run(until=10.0)
    assert delivered == []  # neither packet was fully serialized
    assert link.stats.dropped_down == 2
    assert link.queue_depth_bytes() == 0
    assert link.stats.sent == (link.stats.delivered + link.stats.dropped_loss
                               + link.stats.dropped_queue
                               + link.stats.dropped_down)


def test_set_down_still_delivers_fully_serialized_packets():
    sim = Simulator(seed=0)
    config = LinkConfig(bandwidth_bps=8_000.0, propagation_s=2.0)
    delivered = []
    link = _wired_link(sim, config, delivered)
    assert link.send(_Packet(1000))  # serialized at t=1.0, arrives t=3.0
    sim.schedule_at(1.5, link.set_down)
    sim.run(until=10.0)
    assert len(delivered) == 1  # its bits were on the wire
    assert link.stats.dropped_down == 0


# -- monitors catch deliberately broken laws --------------------------------

def test_link_monitor_catches_conservation_breach():
    sim = Simulator(seed=0)
    delivered = []
    link = _wired_link(sim, LinkConfig(), delivered)
    suite = MonitorSuite(mode="raise")
    suite.attach(sim)
    suite.attach_link(link)
    assert link.send(_Packet(500))
    sim.run(until=1.0)
    link.stats.sent += 3  # tamper: inject bytes the link never saw
    with pytest.raises(LinkViolation) as excinfo:
        link.send(_Packet(500))
    assert excinfo.value.violation.code == "LINK_CONSERVATION"
    assert "link l" in excinfo.value.violation.where


def test_link_monitor_collect_mode_keeps_running():
    sim = Simulator(seed=0)
    link = _wired_link(sim, LinkConfig(), [])
    suite = MonitorSuite(mode="collect")
    suite.attach(sim)
    suite.attach_link(link)
    link.stats.sent += 3
    assert link.send(_Packet(500))
    sim.run(until=1.0)
    codes = {v.code for v in suite.finalize()}
    assert "LINK_CONSERVATION" in codes


def test_clock_monitor_flags_backwards_event():
    suite = MonitorSuite(mode="collect")
    sim = Simulator(seed=0)
    suite.attach(sim)
    tap, = sim.taps
    tap(1.0, _noop)
    tap(0.5, _noop)  # time travel
    assert [v.code for v in suite.violations] == ["CLOCK_BACKWARD"]


def test_hpack_monitor_flags_table_out_of_bounds():
    suite = MonitorSuite(mode="collect")
    encoder = HpackEncoder(max_table_size=4096)
    suite.watch_hpack("enc", encoder)
    encoder._dynamic.size = 4097  # tamper past the capacity
    suite.check_hpack_tables()
    assert [v.code for v in suite.violations] == ["HPACK_TABLE_BOUNDS"]


def test_flow_control_overgrant_mutation_is_caught(monkeypatch):
    """A deliberately broken receive-window branch (granting credit for
    bytes never consumed) must trip the HTTP/2 window monitor."""
    orig = flow_control.ReceiveWindowManager.on_data

    def overgrant(self, nbytes):
        increment = orig(self, nbytes)
        return increment + 70_000 if increment else increment

    monkeypatch.setattr(flow_control.ReceiveWindowManager, "on_data",
                        overgrant)
    with pytest.raises(InvariantViolation) as excinfo:
        run_session(SessionConfig(seed=3, monitors=True))
    assert excinfo.value.violation.code in (
        "H2_STREAM_WINDOW_OVERGRANT", "H2_CONN_WINDOW_OVERGRANT",
        "H2_STREAM_WINDOW_EXCEEDS_INITIAL", "H2_CONN_WINDOW_EXCEEDS_INITIAL")


# -- healthy runs: silent, and byte-identical to unarmed runs ---------------

def test_monitored_session_runs_clean():
    result = run_session(SessionConfig(seed=7, monitors=True))
    assert result.monitor is not None
    assert result.monitor.violations == []
    assert result.load is not None and result.load.success


def test_monitored_faulted_attacked_session_runs_clean():
    plan = FaultPlan((
        FaultEvent("link_down", at_s=0.4, duration_s=0.3,
                   target="mbox->server"),
        FaultEvent("server_stall", at_s=1.2, duration_s=0.5),
    ))
    result = run_session(SessionConfig(
        seed=9, attack=AttackConfig(), faults=plan.to_jsonable(),
        monitors=True))
    assert result.monitor.violations == []


def _session_fingerprint(monitors: bool):
    result = run_session(SessionConfig(seed=11, attack=AttackConfig(),
                                       monitors=monitors))
    tx = [(e.time, e.stream_id, e.object_path, e.serve_id, e.tcp_offset,
           e.length) for e in result.tx_log]
    return (tx, result.duration_s, result.processed_events,
            result.report.predicted_labels)


def test_armed_run_is_byte_identical_to_unarmed_run():
    """Monitors only observe: arming them must not change a single
    event, byte or attack outcome."""
    assert _session_fingerprint(False) == _session_fingerprint(True)


def test_unarmed_probes_default_to_none():
    """An unarmed observation point holds an empty tap list."""
    sim = Simulator(seed=0)
    link = Link(sim, "l", LinkConfig())
    assert sim.taps == [] and link.taps == []


# -- taxonomy ---------------------------------------------------------------

def test_violation_renders_and_roundtrips():
    violation = Violation(code="LINK_CONSERVATION", domain="link",
                          at_s=1.25, where="link l",
                          message="sent=2 != ...", recent=("t=1.0s x",))
    assert "LINK_CONSERVATION" in violation.oneline()
    data = violation.to_jsonable()
    assert data["code"] == "LINK_CONSERVATION"
    assert data["recent"] == ["t=1.0s x"]
    error = LinkViolation(violation)
    assert isinstance(error, InvariantViolation)
    assert isinstance(error, AssertionError)
    assert error.violation is violation
