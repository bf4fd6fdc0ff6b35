"""HTTP/2 frame sizes, settings, flow control, stream states, priority,
and scheduler unit tests."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http2 import frames as fr
from repro.http2.connection import Http2Connection
from repro.http2.errors import ErrorCode, Http2ProtocolError, StreamError
from repro.http2.flow_control import (
    MAX_WINDOW,
    FlowControlWindow,
    ReceiveWindowManager,
)
from repro.http2.hpack import _DynamicTable
from repro.http2.priority import PriorityTree
from repro.http2.scheduler import (
    FifoScheduler,
    RoundRobinScheduler,
    WeightedScheduler,
    make_scheduler,
)
from repro.http2.server import ServerConnection, _DataRun
from repro.http2.settings import Http2Settings
from repro.http2.stream import StreamState


# -- frames -----------------------------------------------------------------

def test_frame_wire_sizes():
    assert fr.DataFrame(stream_id=1, length=1000).wire_size == 1009
    assert fr.RstStreamFrame(stream_id=1).wire_size == 13
    assert fr.GoAwayFrame().wire_size == 17
    assert fr.WindowUpdateFrame(increment=1).wire_size == 13
    assert fr.PingFrame().wire_size == 17
    assert fr.PriorityFrame(stream_id=3).wire_size == 14


def test_headers_frame_size_with_priority():
    plain = fr.HeadersFrame(stream_id=1, header_block_len=50)
    weighted = fr.HeadersFrame(stream_id=1, header_block_len=50,
                               priority_weight=16)
    assert weighted.wire_size == plain.wire_size + 5


def test_settings_frame_sizes():
    assert fr.SettingsFrame(ack=True).wire_size == 9
    assert fr.SettingsFrame(settings={1: 1, 2: 2}).wire_size == 9 + 12


def test_push_promise_size():
    frame = fr.PushPromiseFrame(stream_id=1, promised_stream_id=2,
                                header_block_len=30)
    assert frame.wire_size == 9 + 4 + 30


# -- settings ---------------------------------------------------------------

def test_settings_roundtrip():
    settings = Http2Settings(initial_window_size=123_456, enable_push=True,
                             max_concurrent_streams=7)
    parsed = Http2Settings.from_wire(settings.to_wire())
    assert parsed == settings


def test_settings_partial_wire_keeps_defaults():
    parsed = Http2Settings.from_wire({0x4: 999})
    assert parsed.initial_window_size == 999
    assert parsed.max_frame_size == Http2Settings().max_frame_size


# -- flow control -------------------------------------------------------------

def test_window_consume_and_replenish():
    window = FlowControlWindow(1000)
    window.consume(400)
    assert window.available == 600
    window.replenish(200)
    assert window.available == 800


def test_window_overdraft_raises():
    window = FlowControlWindow(100)
    with pytest.raises(Http2ProtocolError):
        window.consume(101)


def test_window_overflow_raises():
    window = FlowControlWindow(MAX_WINDOW)
    with pytest.raises(Http2ProtocolError):
        window.replenish(1)


def test_window_update_must_be_positive():
    window = FlowControlWindow(10)
    with pytest.raises(Http2ProtocolError):
        window.replenish(0)


def test_receive_manager_emits_update_past_threshold():
    manager = ReceiveWindowManager(1000)
    assert manager.on_data(200) == 0
    increment = manager.on_data(100)
    assert increment == 300
    assert manager.consumed == 0


# -- stream state machine -------------------------------------------------------

def test_server_side_lifecycle():
    server = StreamState(1)
    server.on_recv_headers(end_stream=True)
    assert server.state == "half-closed-remote"
    server.on_send_data(500, end_stream=True)
    assert server.is_closed
    assert server.bytes_sent == 500


def test_data_on_idle_stream_is_error():
    stream = StreamState(1)
    with pytest.raises(StreamError):
        stream.on_send_data(10)


def test_reset_closes_stream():
    stream = StreamState(1)
    stream.on_recv_headers()
    stream.on_recv_rst(int(ErrorCode.CANCEL))
    assert stream.is_closed and stream.was_reset


def test_frames_after_reset_tolerated():
    stream = StreamState(1)
    stream.on_recv_headers()
    stream.on_recv_rst(8)
    stream.on_recv_headers()  # no raise


# -- priority tree ----------------------------------------------------------------

def test_single_stream_gets_full_share():
    tree = PriorityTree()
    tree.add_stream(1)
    assert tree.effective_weight(1) == pytest.approx(1.0)


def test_sibling_shares_proportional_to_weight():
    tree = PriorityTree()
    tree.add_stream(1, weight=32)
    tree.add_stream(3, weight=96)
    assert tree.effective_weight(1) == pytest.approx(0.25)
    assert tree.effective_weight(3) == pytest.approx(0.75)


def test_dependency_splits_parent_share():
    tree = PriorityTree()
    tree.add_stream(1, weight=16)
    tree.add_stream(3, depends_on=1, weight=16)
    assert tree.effective_weight(3) == pytest.approx(1.0)  # only child of 1


def test_exclusive_adoption():
    tree = PriorityTree()
    tree.add_stream(1)
    tree.add_stream(3)
    tree.add_stream(5, exclusive=True)
    # 5 adopted 1 and 3; they now share 5's allocation.
    assert tree.effective_weight(5) == pytest.approx(1.0)
    assert tree.effective_weight(1) == pytest.approx(0.5)


def test_unknown_parent_treated_as_root():
    tree = PriorityTree()
    tree.add_stream(5, depends_on=99)
    assert tree.effective_weight(5) == pytest.approx(1.0)


def test_weight_bounds():
    tree = PriorityTree()
    with pytest.raises(ValueError):
        tree.add_stream(1, weight=0)
    with pytest.raises(ValueError):
        tree.add_stream(1, weight=257)


def test_self_dependency_rejected():
    tree = PriorityTree()
    with pytest.raises(ValueError):
        tree.add_stream(1, depends_on=1)


def test_scheduling_weights_normalized():
    tree = PriorityTree()
    tree.add_stream(1, weight=10)
    tree.add_stream(3, weight=30)
    weights = tree.scheduling_weights([1, 3])
    assert sum(weights.values()) == pytest.approx(1.0)


# -- schedulers -------------------------------------------------------------------

def every(_sid):
    return True


def test_round_robin_rotates():
    scheduler = RoundRobinScheduler()
    picks = [scheduler.pick([1, 3, 5], every) for _ in range(6)]
    assert picks == [1, 3, 5, 1, 3, 5]


def test_round_robin_skips_missing():
    scheduler = RoundRobinScheduler()
    assert scheduler.pick([1, 3, 5], every) == 1
    assert scheduler.pick([5], every) == 5
    assert scheduler.pick([1, 3, 5], every) == 1


def test_fifo_serves_oldest_to_completion():
    scheduler = FifoScheduler()
    assert scheduler.pick([1, 3], every) == 1
    assert scheduler.pick([1, 3], every) == 1
    scheduler.on_stream_done(1)
    assert scheduler.pick([3], every) == 3


def test_weighted_respects_ratios():
    tree = PriorityTree()
    tree.add_stream(1, weight=16)
    tree.add_stream(3, weight=48)
    scheduler = WeightedScheduler(tree)
    picks = [scheduler.pick([1, 3], every) for _ in range(100)]
    share_three = picks.count(3) / len(picks)
    assert share_three == pytest.approx(0.75, abs=0.05)


def test_weighted_is_deterministic():
    def run():
        tree = PriorityTree()
        tree.add_stream(1, weight=10)
        tree.add_stream(3, weight=20)
        scheduler = WeightedScheduler(tree)
        return [scheduler.pick([1, 3], every) for _ in range(30)]

    assert run() == run()


# The oracle: the mux as it was before ``pick`` took a predicate.  The
# server sorted every queued stream and tested each one, then the
# scheduler chose among the survivors.

def reference_eligible(state):
    eligible = []
    for sid in sorted(state.stream_queues):
        stream = state.streams.get(sid)
        if stream is not None and stream.was_reset:
            continue
        head = state.heads[sid]
        if isinstance(head, fr.DataFrame) and not state.can_send_data(
                sid, head.length):
            continue
        eligible.append(sid)
    return eligible


class ReferenceRoundRobin:
    def __init__(self):
        self._last = None

    def pick(self, eligible):
        if self._last is None:
            choice = eligible[0]
        else:
            later = [sid for sid in eligible if sid > self._last]
            choice = later[0] if later else eligible[0]
        self._last = choice
        return choice

    def on_stream_done(self, stream_id):
        return None


class ReferenceChoice:
    """FIFO and weighted choose among the eligible list as they always
    did (``_choose``); only the list is built differently."""

    def __init__(self, scheduler):
        self.scheduler = scheduler

    def pick(self, eligible):
        return self.scheduler._choose(eligible)

    def on_stream_done(self, stream_id):
        self.scheduler.on_stream_done(stream_id)


class QueueState:
    """The slice of a ServerConnection that scheduling reads: queued
    heads, stream states and both send windows.  ``heads`` keeps each
    queue's head as a frame for the reference; the queue holds a DATA
    head as a body cursor, as the server does."""

    can_send_data = Http2Connection.can_send_data
    _stream_send_window = Http2Connection._stream_send_window
    _sendable = ServerConnection._sendable

    def __init__(self, conn_window, queued):
        self.peer_settings = Http2Settings()
        self.send_window_connection = FlowControlWindow(conn_window)
        self.send_window_streams = {}
        self.streams = {}
        self.stream_queues = {}
        self.heads = {}
        for sid, (head, stream_window, reset) in queued.items():
            if head == "headers":
                frame = fr.HeadersFrame(stream_id=sid)
                entry = (frame, False)
            else:
                frame = fr.DataFrame(stream_id=sid, length=head)
                entry = _DataRun(None, 0, 0, head, head, False)
            self.heads[sid] = frame
            self.stream_queues[sid] = deque([entry])
            if stream_window is not None:
                self.send_window_streams[sid] = FlowControlWindow(
                    stream_window)
            if reset:
                stream = StreamState(sid)
                stream.on_recv_rst(int(ErrorCode.CANCEL))
                self.streams[sid] = stream
            elif sid % 4 == 1:
                self.streams[sid] = StreamState(sid)


stream_ids = st.integers(min_value=1, max_value=40)
queue_heads = st.tuples(
    st.one_of(st.just("headers"), st.integers(min_value=1, max_value=1370)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2000)),
    st.booleans())
queue_states = st.tuples(
    st.sampled_from([0, 700, 1370, 65_535]),
    st.dictionaries(stream_ids, queue_heads, max_size=12))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["round-robin", "fifo", "weighted"]),
       last=st.one_of(st.none(), stream_ids),
       weights=st.dictionaries(stream_ids,
                               st.integers(min_value=1, max_value=256)),
       rounds=st.lists(st.tuples(queue_states, st.one_of(st.none(),
                                                         stream_ids)),
                       min_size=1, max_size=12))
def test_pick_matches_the_sorted_eligible_list(kind, last, weights, rounds):
    tree = PriorityTree()
    for sid, weight in sorted(weights.items()):
        tree.add_stream(sid, weight=weight)
    new = make_scheduler(kind, tree)
    if kind == "round-robin":
        old = ReferenceRoundRobin()
        new._last = old._last = last
    else:
        old = ReferenceChoice(make_scheduler(kind, tree))
    for (conn_window, queued), done in rounds:
        state = QueueState(conn_window, queued)
        ready = sorted(state.stream_queues)
        eligible = reference_eligible(state)
        expected = old.pick(eligible) if eligible else None
        assert new.pick(ready, state._sendable) == expected
        if done is not None:
            old.on_stream_done(done)
            new.on_stream_done(done)


header_names = st.sampled_from(["a", "bb", ":path", "cookie"])
header_values = st.sampled_from(["", "x", "/index", "session=1234567"])


@settings(max_examples=150, deadline=None)
@given(max_size=st.integers(min_value=0, max_value=300),
       adds=st.lists(st.tuples(header_names, header_values), max_size=60))
def test_dynamic_table_find_matches_a_linear_scan(max_size, adds):
    table = _DynamicTable(max_size)
    for name, value in adds:
        table.add(name, value)
        for pair in sorted({(n, v) for n, _ in adds for _, v in adds}):
            expected = next((i + 1 for i, entry in enumerate(table.entries)
                             if entry == pair), 0)
            assert table.find(*pair) == expected


def test_make_scheduler_factory():
    assert make_scheduler("round-robin").name == "round-robin"
    assert make_scheduler("fifo").name == "fifo"
    assert make_scheduler("weighted").name == "weighted"
    with pytest.raises(ValueError):
        make_scheduler("lifo")
