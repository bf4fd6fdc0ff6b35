"""Runtime invariant monitors: catching laws we deliberately break,
staying silent (and byte-identical) on healthy runs, and the two
in-tree bugs the monitors flushed out."""

import hashlib
import json

import pytest

from repro.core.phases import AttackConfig
from repro.experiments import chaos
from repro.experiments.session import SessionConfig, run_session
from repro.faults import FaultEvent, FaultPlan
from repro.http2 import connection, flow_control
from repro.http2.hpack import HpackEncoder
from repro.invariants import (
    EventRing,
    HpackViolation,
    InvariantViolation,
    LinkViolation,
    MonitorSuite,
    Violation,
    violations,
)
from repro.invariants.chaos import generate_spec
from repro.simnet.engine import Simulator
from repro.simnet.link import Link, LinkConfig


def _noop():
    pass


# -- regression: the two bugs the monitors found in-tree --------------------
#
# The first, ``run(until=..., max_events=...)`` jumping the clock past
# pending events, can no longer happen: ``run`` has no ``max_events``.

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


def _monitored_link(config):
    sim = Simulator(seed=0)
    link = _wired_link(sim, config, [])
    suite = MonitorSuite(mode="raise")
    suite.attach(sim)
    suite.attach_link(link)
    watch, = suite._links
    return sim, link, suite, watch


def test_set_down_on_a_fifo_link_drains_cancelled_ids():
    sim, link, suite, watch = _monitored_link(LinkConfig(
        bandwidth_bps=8_000.0, propagation_s=0.001))
    packets = [_Packet(1000) for _ in range(3)]
    for packet in packets:
        assert link.send(packet)
    sim.schedule_at(0.5, link.set_down)
    sim.run(until=1.0)
    assert len(watch.cancelled) == 3
    link.set_up()
    packets.append(_Packet(1000))
    assert link.send(packets[-1])
    sim.run(until=10.0)
    assert link.stats.delivered == 1
    assert watch.cancelled == {} and len(watch.order) == 0
    assert suite.finalize() == []


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
    encoder = HpackEncoder()
    suite.watch_hpack("enc", encoder)
    encoder._dynamic.size = 4097  # tamper past the capacity
    suite.check_hpack_tables()
    assert [v.code for v in suite.violations] == ["HPACK_TABLE_BOUNDS"]


# -- scripted mutations ----------------------------------------------------
#
# Each mutation factory returns ``(owner, name, replacement)`` with fresh
# state, so every run breaks the law at the same point.  The link
# mutations act on the 20th arrival overall, late enough that TCP and
# HTTP/2 events fill the ring.

_NTH_ARRIVAL = 20


def _overgrant():
    orig = flow_control.ReceiveWindowManager.on_data

    def on_data(self, nbytes):
        increment = orig(self, nbytes)
        return increment + 70_000 if increment else increment

    return flow_control.ReceiveWindowManager, "on_data", on_data


def _overdraw():
    orig = flow_control.FlowControlWindow.consume

    def consume(self, nbytes):
        orig(self, nbytes + 1 if self.label == "conn-send" else nbytes)

    return flow_control.FlowControlWindow, "consume", consume


def _undercount_delivery():
    orig = Link._on_arrive
    seen = [0]

    def on_arrive(self, packet):
        seen[0] += 1
        if seen[0] == _NTH_ARRIVAL:
            self.stats.delivered -= 1
        orig(self, packet)

    return Link, "_on_arrive", on_arrive


def _hold_back_one():
    """Hold one packet of a link back until the next packet on that link
    has arrived."""
    orig = Link._on_arrive
    seen = [0]
    held = []

    def on_arrive(self, packet):
        seen[0] += 1
        if seen[0] == _NTH_ARRIVAL:
            held.append((self, packet))
            return
        orig(self, packet)
        if held and held[0][0] is self:
            orig(*held.pop())

    return Link, "_on_arrive", on_arrive


def _deliver_twice():
    orig = Link._on_arrive
    seen = [0]

    def on_arrive(self, packet):
        seen[0] += 1
        orig(self, packet)
        if seen[0] == _NTH_ARRIVAL:
            orig(self, packet)

    return Link, "_on_arrive", on_arrive


def test_flow_control_overgrant_mutation_is_caught(monkeypatch):
    """A deliberately broken receive-window branch (granting credit for
    bytes never consumed) must trip the HTTP/2 window monitor."""
    monkeypatch.setattr(*_overgrant())
    with pytest.raises(InvariantViolation) as excinfo:
        run_session(SessionConfig(seed=3, monitors=True))
    assert excinfo.value.violation.code in (
        "H2_STREAM_WINDOW_OVERGRANT", "H2_CONN_WINDOW_OVERGRANT",
        "H2_STREAM_WINDOW_EXCEEDS_INITIAL", "H2_CONN_WINDOW_EXCEEDS_INITIAL")


def test_connection_credit_overdraw_mutation_is_caught(monkeypatch):
    """A DATA send path that spends one byte more connection credit
    than the frame carries leaves every window non-negative and under
    its ceiling; only the credit ledger sees the drift."""
    monkeypatch.setattr(*_overdraw())
    with pytest.raises(InvariantViolation) as excinfo:
        run_session(SessionConfig(seed=3, monitors=True))
    assert excinfo.value.violation.code == "H2_CONN_CREDIT_DRIFT"


# -- violation reports pinned byte for byte ---------------------------------

def _mutated_reports(monkeypatch, mutation):
    """Violation reports of the mutated code: six plain monitored
    sessions, then six chaos cells (``None`` where a run stayed clean)."""
    reports = []
    for seed in range(6):
        with monkeypatch.context() as patch:
            patch.setattr(*mutation())
            try:
                run_session(SessionConfig(seed=seed, monitors=True))
                reports.append(None)
            except InvariantViolation as exc:
                reports.append(exc.violation.to_jsonable())
    for seed in range(6):
        with monkeypatch.context() as patch:
            patch.setattr(*mutation())
            spec = generate_spec(0, seed).to_jsonable()
            metrics = chaos.run_cell(seed, spec)
        reports.append(metrics["violation"])
    return reports


@pytest.mark.parametrize("mutation, codes, digest", [
    (_overgrant, {"H2_STREAM_WINDOW_OVERGRANT"},
     "6d466cc8b9773ae863342d8f5696b8083e679bec47d056ba62b9a5089ba49511"),
    (_overdraw, {"H2_CONN_CREDIT_DRIFT"},
     "e1c8af9b922bfa2b97ebafdb21bf71a68a93a7d3d85d4d9cc39623debc6896f9"),
    (_undercount_delivery, {"LINK_CONSERVATION"},
     "244b40ca051683ba39f398a80e51260f9c0e4e384c8a5f7713510cca3d9877d3"),
    (_hold_back_one, {"LINK_FIFO_ORDER"},
     "02c2a30474a01424b1f95b960bdf1a3110a273352b305fb315e8e4db6e8337c8"),
    (_deliver_twice, {"LINK_PHANTOM_DELIVERY"},
     "b00486d9a4cca341c3ebc241000bdc1515ef6a94221cc50e193f8350571af531"),
], ids=["overgrant", "conn-send-overdraw", "undercount-delivery",
        "hold-back-one", "deliver-twice"])
def test_violation_reports_are_pinned_byte_for_byte(monkeypatch, mutation,
                                                    codes, digest):
    """Code, time, place, message and the full 48-entry event trail of
    every report stay exactly as recorded, whatever the monitors'
    internals."""
    reports = _mutated_reports(monkeypatch, mutation)
    found = [report for report in reports if report is not None]
    assert {report["code"] for report in found} == codes
    assert all(len(report["recent"]) == 48 for report in found)
    trail = [line.split(" ", 2)[1] for report in found
             for line in report["recent"]]
    assert {"link", "tcp", "h2"} <= set(trail)
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


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


def test_credit_ledger_holds_when_window_updates_pump_data(monkeypatch):
    """A 100 kB connection window makes the client send connection
    WINDOW_UPDATEs mid-transfer.  The server's handler pumps DATA before
    the update's receive tap counts the credit; the ledger must not
    read that as drift."""
    monkeypatch.setattr(connection, "CONNECTION_WINDOW", 100_000)
    result = run_session(SessionConfig(seed=0, monitors=True))
    assert result.monitor.violations == []
    assert result.load.success


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

def test_event_ring_renders_templated_and_legacy_entries_alike(monkeypatch):
    monkeypatch.setattr(violations, "RING_CAPACITY", 3)
    ring = EventRing()
    ring.record(0.25, "link a%sb: accept 100B")
    ring.push((0.25, "link %s: %s %sB", "a%sb", "accept", 100))
    ring.push((0.25, "link a%%sb: %s %sB", "accept", 100))
    assert ring.snapshot() == ("t=0.250000s link a%sb: accept 100B",) * 3
    ring.push((0.5, "%s", "newest"))
    assert len(ring.snapshot()) == 3
    assert ring.snapshot()[-1] == "t=0.500000s newest"


def test_monitor_trail_renders_percent_in_names_literally():
    sim = Simulator(seed=0)
    link = Link(sim, "l%d %s", LinkConfig())
    link.attach(lambda packet: None)
    suite = MonitorSuite(mode="collect")
    suite.attach(sim)
    suite.attach_link(link)
    assert link.send(_Packet(500))
    assert suite.ring.snapshot() == ("t=0.000000s link l%d %s: accept 500B",)


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
