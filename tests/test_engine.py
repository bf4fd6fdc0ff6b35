"""Event loop and random-stream tests, plus the __slots__ guard on
hot-path objects."""

import pytest

from repro.http2.frames import DataFrame, HeadersFrame
from repro.http2.hpack import HpackToken
from repro.http2.server import TxEntry
from repro.simnet.engine import Simulator
from repro.simnet.middlebox import DROP, PASS
from repro.simnet.packet import Packet, RecordInfo, TcpWireView, WireView
from repro.simnet.randomness import RandomStreams
from repro.simnet.trace import CapturedPacket, CompletedRecord, TraceRecorder
from repro.tcp.segment import RecordSlice
from repro.tls.record import TlsRecord


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, fired.append, "c")
    sim.schedule(0.1, fired.append, "a")
    sim.schedule(0.2, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.5, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 1.5


def test_simulator_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(RuntimeError):
            sim.run()

    sim.schedule(0.1, reenter)
    sim.run()


def _pending(sim):
    """Events still to fire: the heap entries not cancelled."""
    return sum(1 for _when, _seq, handle in sim._queue
               if not handle.cancelled)


def test_pending_events_counts_uncancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    handle = sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert _pending(sim) == 1


def test_pending_events_tracks_schedule_cancel_and_run():
    sim = Simulator()
    handles = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(4)]
    assert _pending(sim) == 4
    handles[0].cancel()
    handles[0].cancel()
    assert _pending(sim) == 3
    sim.run(until=0.35)
    assert _pending(sim) == 1
    sim.run()
    assert _pending(sim) == 0


def test_cancelling_a_fired_event_is_a_no_op():
    """A handle's event already ran, so cancelling it (as a connection's
    teardown may, from inside the very timer that fired) must leave the
    other pending events alone."""
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    later = sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    handle.cancel()
    handle.cancel()
    assert fired == ["x"]
    assert _pending(sim) == 1
    sim.run()
    later.cancel()
    assert _pending(sim) == 0


def test_event_may_cancel_its_own_handle():
    sim = Simulator()
    box = {}

    def fire():
        box["handle"].cancel()
        sim.schedule(1.0, lambda: None)

    box["handle"] = sim.schedule(1.0, fire)
    sim.run(until=1.5)
    assert _pending(sim) == 1
    sim.run()
    assert _pending(sim) == 0
    assert sim.processed_events == 2


def test_pending_events_counts_events_scheduled_during_run():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: None))
    sim.run(until=1.0)
    assert _pending(sim) == 1


def test_processed_events_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(0.1, lambda: None)
    sim.run()
    assert sim.processed_events == 5


def test_named_streams_are_deterministic():
    a = RandomStreams(42)
    b = RandomStreams(42)
    assert [a.get("x").random() for _ in range(5)] == \
           [b.get("x").random() for _ in range(5)]


def test_named_streams_are_independent():
    streams = RandomStreams(42)
    first = [streams.get("x").random() for _ in range(5)]
    # Drawing from another stream must not perturb the first.
    streams2 = RandomStreams(42)
    streams2.get("y").random()
    second = [streams2.get("x").random() for _ in range(5)]
    assert first == second


def test_different_seeds_differ():
    a = RandomStreams(1).get("x").random()
    b = RandomStreams(2).get("x").random()
    assert a != b


def test_fork_gives_independent_registry():
    base = RandomStreams(7)
    fork1 = base.fork("rep1")
    fork2 = base.fork("rep2")
    assert fork1.get("x").random() != fork2.get("x").random()


def test_simulator_rng_is_stream_backed():
    sim_a = Simulator(seed=5)
    sim_b = Simulator(seed=5)
    assert sim_a.rng("link").random() == sim_b.rng("link").random()


def test_hot_path_objects_reject_stray_attributes():
    """The slots optimization also guards against typo'd attributes
    silently creating per-instance dicts on hot-path objects, and the
    immutable per-packet records (NamedTuples) reject field writes too."""
    sim = Simulator(seed=0)
    handle = sim.schedule(0.0, lambda: None)
    record = TlsRecord(content_type=23, payload_len=10)
    mutable_cases = [
        handle,
        record,
        Packet(src="c", dst="s", size=100),
        DataFrame(stream_id=1, length=10),
        HeadersFrame(stream_id=1, header_block_len=10),
        TraceRecorder(),
    ]
    for obj in mutable_cases:
        with pytest.raises(AttributeError):
            obj.definitely_not_a_field = 1
    for obj in (handle, record):
        assert not hasattr(obj, "__dict__")

    info = RecordInfo(record_id=1, content_type=23, record_wire_len=10,
                      bytes_in_packet=10, is_start=True, is_end=True)
    tcp = TcpWireView(src_port=1, dst_port=2, seq=0, ack=0, payload_len=10)
    view = WireView(pid=1, src="c", dst="s", size=100, tcp=tcp,
                    records=(info,))
    immutable_cases = [
        info,
        tcp,
        view,
        RecordSlice(record=record, offset=0, length=10),
        CapturedPacket(time=0.0, direction="c2s", view=view, dropped=False),
        CompletedRecord(record_id=1, content_type=23, wire_len=10,
                        start_time=0.0, end_time=0.0, direction="s2c",
                        final_packet_size=100),
        TxEntry(time=0.0, stream_id=1, object_path="/", serve_id=1,
                tcp_offset=0, length=10, is_data=True, end_stream=True,
                duplicate=False),
        HpackToken(kind="indexed", index=2),
        PASS,
        DROP,
    ]
    for obj in immutable_cases:
        with pytest.raises(AttributeError):
            setattr(obj, obj._fields[0], obj[0])
        with pytest.raises(AttributeError):
            obj.definitely_not_a_field = 1
        assert not hasattr(obj, "__dict__")


#: Python-level calls (``sys.setprofile`` "call" events) per executed
#: event over ``table2.run_cell(0)``.  The tree reads 12.7 on CPython
#: 3.10, 3.11 and 3.12 (18.1 before the clock, the event handles and the
#: per-packet records stopped costing a call each).  Restoring only the
#: ``Simulator.now`` property adds 1.5 and breaks the budget.
FRAMES_PER_EVENT_BUDGET = 13.5


def test_table2_cell_stays_within_its_frame_budget():
    """A budget on Python frames per event: a new call on a per-packet
    or per-event path shows here, whatever its wall-time noise."""
    import sys

    from repro.experiments import table2

    table2.run_cell(1)  # import and warm every module first
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        metrics = table2.run_cell(0)
    finally:
        sys.setprofile(previous)
    per_event = calls / metrics["processed_events"]
    assert per_event <= FRAMES_PER_EVENT_BUDGET, (
        f"{per_event:.2f} Python calls per event "
        f"(budget {FRAMES_PER_EVENT_BUDGET})")
