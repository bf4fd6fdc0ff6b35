"""Property-based tests (hypothesis) on core data structures."""

import math
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.estimator import SizeEstimator
from repro.core.metrics import degree_of_multiplexing, serve_spans
from repro.core.planner import spacing_schedule
from repro.http2.frames import DataFrame, HeadersFrame, PushPromiseFrame
from repro.http2.hpack import HpackDecoder, HpackEncoder
from repro.http2.priority import PriorityTree
from repro.http2.server import ServerConnection, TxEntry
from repro.simnet.engine import Simulator
from repro.simnet.middlebox import (CLIENT_TO_SERVER, DROP, SERVER_TO_CLIENT,
                                    NetemJitterPolicy, PolicyAction,
                                    SpacingPolicy, TokenBucketPolicy,
                                    UniformDelayPolicy)
from repro.simnet.packet import Packet, RecordInfo, TcpWireView, WireView
from repro.simnet.trace import CompletedRecord, TraceRecorder
from repro.tcp.buffer import SendBuffer
from repro.tcp.congestion import RenoCongestionControl
from repro.tcp.rto import RtoEstimator
from repro.tcp.segment import RecordSlice, TcpSegment
from repro.tls.record import (ALERT, APPLICATION_DATA, HANDSHAKE,
                              TlsRecord)


# -- send buffer: slicing is a partition ------------------------------------

@given(st.lists(st.integers(min_value=22, max_value=3000), min_size=1,
                max_size=30),
       st.data())
def test_send_buffer_slices_partition_stream(record_sizes, data):
    buf = SendBuffer()
    for size in record_sizes:
        buf.write(TlsRecord(content_type=APPLICATION_DATA,
                            payload_len=size - 21))
    total = buf.total_written
    start = data.draw(st.integers(min_value=0, max_value=total - 1))
    length = data.draw(st.integers(min_value=1, max_value=total - start))
    slices = buf.slice_stream(start, length)
    assert sum(s.length for s in slices) == length
    # Slices are contiguous and non-overlapping within their records.
    for s in slices:
        assert 0 <= s.offset < s.record.wire_len
        assert 0 < s.length <= s.record.wire_len - s.offset


@given(st.lists(st.integers(min_value=22, max_value=2000), min_size=2,
                max_size=20))
def test_send_buffer_mss_segmentation_covers_everything(record_sizes):
    buf = SendBuffer()
    for size in record_sizes:
        buf.write(TlsRecord(content_type=APPLICATION_DATA,
                            payload_len=size - 21))
    mss = 1400
    covered = 0
    seq = 0
    while seq < buf.total_written:
        length = min(mss, buf.total_written - seq)
        covered += sum(s.length for s in buf.slice_stream(seq, length))
        seq += length
    assert covered == buf.total_written


# -- hpack: decode(encode(x)) == x -------------------------------------------

header_name = st.sampled_from(
    [":path", ":method", "accept", "cookie", "x-a", "x-b", "user-agent"])
header_value = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=0, max_size=24)


@given(st.lists(st.tuples(header_name, header_value), min_size=1,
                max_size=12))
@settings(max_examples=50)
def test_hpack_roundtrip_property(headers):
    encoder = HpackEncoder()
    decoder = HpackDecoder()
    for _ in range(2):  # stateful: same block twice must still round-trip
        size, tokens = encoder.encode(headers)
        assert size >= 1
        assert decoder.decode(tokens) == headers


# -- reno: invariants ----------------------------------------------------------

@given(st.lists(st.sampled_from(["ack", "fast", "dup", "timeout", "exit",
                                 "idle"]),
                max_size=60))
def test_reno_invariants(events):
    control = RenoCongestionControl(mss=1000, init_cwnd_segments=10,
                                    cwnd_cap_bytes=100_000)
    for event in events:
        if event == "ack":
            control.on_ack(1000)
        elif event == "fast":
            control.on_fast_retransmit(flight_size=control.cwnd)
        elif event == "dup":
            control.on_dup_ack_in_recovery()
        elif event == "timeout":
            control.on_timeout(flight_size=control.cwnd)
        elif event == "exit":
            control.on_recovery_exit()
        elif event == "idle":
            control.on_idle_restart()
        assert 1000 <= control.cwnd <= 100_000
        assert control.ssthresh >= 2000


# -- rto: always within clamps ----------------------------------------------------

@given(st.lists(st.one_of(
    st.floats(min_value=0.0, max_value=5.0).map(lambda x: ("sample", x)),
    st.just(("timeout", None)),
    st.just(("ack", None)),
    st.just(("spurious", None)),
), max_size=60))
def test_rto_always_clamped(events):
    est = RtoEstimator(min_rto=0.2, max_rto=10.0)
    for kind, value in events:
        if kind == "sample":
            est.on_rtt_sample(value)
        elif kind == "timeout":
            est.on_timeout()
        elif kind == "ack":
            est.on_new_ack()
        else:
            est.on_spurious_timeout()
        assert 0.2 <= est.rto <= 10.0


# -- rto: the comparison clamp is the max/min clamp, bit for bit --------------

def _clamp_oracle(est):
    return max(est.min_rto, min(est.max_rto, est._base_rto * est._backoff))


_RTO_STEPS = st.lists(st.one_of(
    st.floats(min_value=0.0, max_value=5.0).map(lambda x: ("sample", x)),
    st.sampled_from([("timeout", None), ("ack", None), ("spurious", None)]),
), max_size=60)


@given(min_rto=st.floats(min_value=0.0, max_value=1.0),
       span=st.floats(min_value=0.0, max_value=20.0),
       initial=st.floats(min_value=0.0, max_value=30.0),
       cap=st.integers(min_value=1, max_value=64),
       steps=_RTO_STEPS)
# min_rto == max_rto: every value clamps to the same float.
@example(min_rto=0.5, span=0.0, initial=1.0, cap=8,
         steps=[("sample", 0.0), ("spurious", None), ("timeout", None)])
def test_rto_equals_clamp_oracle_bit_for_bit(min_rto, span, initial, cap,
                                             steps):
    est = RtoEstimator(min_rto, min_rto + span, initial, backoff_cap=cap)
    assert est.rto.hex() == _clamp_oracle(est).hex()
    for kind, value in steps:
        if kind == "sample":
            est.on_rtt_sample(value)
            base = est.srtt + max(4 * est.rttvar, 0.001)
        elif kind == "timeout":
            est.on_timeout()
            base = None
        elif kind == "ack":
            est.on_new_ack()
            base = None
        else:
            base = est._base_rto * 2.0
            est.on_spurious_timeout()
        if base is not None:
            # A base update is clamped by the same law.
            expected = max(est.min_rto, min(est.max_rto, base))
            assert est._base_rto.hex() == expected.hex()
        assert est.rto.hex() == _clamp_oracle(est).hex()


def test_rto_clamp_edges_hit_exactly():
    at_min = RtoEstimator(min_rto=0.2, max_rto=10.0, initial_rto=0.2)
    assert at_min._base_rto * at_min._backoff == 0.2
    assert at_min.rto == 0.2 == _clamp_oracle(at_min)
    at_min.on_rtt_sample(0.001)
    assert at_min.rto == 0.2 == _clamp_oracle(at_min)

    at_max = RtoEstimator(min_rto=0.2, max_rto=4.0, initial_rto=2.0,
                          backoff_cap=4)
    at_max.on_timeout()
    assert at_max._base_rto * at_max._backoff == 4.0
    assert at_max.rto == 4.0 == _clamp_oracle(at_max)
    at_max.on_timeout()
    assert at_max.rto == 4.0 == _clamp_oracle(at_max)


# -- segment wire view: positional build equals the keyword build -------------

def _reference_wire_view(segment):
    """The field-by-field construction the positional one replaced."""
    tcp_view = TcpWireView(
        src_port=segment.src_port,
        dst_port=segment.dst_port,
        seq=segment.seq,
        ack=segment.ack_no,
        payload_len=segment.payload_len,
        syn=segment.syn,
        fin=segment.fin,
        rst=segment.rst,
        is_ack=segment.is_ack,
    )
    infos = tuple(RecordInfo(
        record_id=s.record.record_id,
        content_type=s.record.content_type,
        record_wire_len=s.record.wire_len,
        bytes_in_packet=s.length,
        is_start=s.is_start,
        is_end=s.is_end,
    ) for s in segment.slices)
    return tcp_view, infos, segment.retx_count > 0


@st.composite
def _record_slices(draw):
    slices = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        record = TlsRecord(
            content_type=draw(st.sampled_from([ALERT, HANDSHAKE,
                                               APPLICATION_DATA])),
            payload_len=draw(st.integers(min_value=0, max_value=3000)))
        # Bias both ends towards the record boundaries and one byte off.
        offset = draw(st.one_of(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=record.wire_len - 1)))
        rest = record.wire_len - offset
        length = draw(st.one_of(
            st.integers(min_value=max(1, rest - 1), max_value=rest),
            st.integers(min_value=1, max_value=rest)))
        slices.append(RecordSlice(record, offset, length))
    return tuple(slices)


@given(slices=_record_slices(),
       ports=st.tuples(st.integers(0, 65535), st.integers(0, 65535)),
       seq=st.integers(min_value=0, max_value=1 << 32),
       ack_no=st.integers(min_value=0, max_value=1 << 32),
       flags=st.tuples(st.booleans(), st.booleans(), st.booleans(),
                       st.booleans()),
       retx_count=st.integers(min_value=0, max_value=5))
def test_wire_view_equals_keyword_reference(slices, ports, seq, ack_no,
                                            flags, retx_count):
    syn, fin, rst, is_ack = flags
    segment = TcpSegment("client", "server", ports[0], ports[1], seq, ack_no,
                         sum(s.length for s in slices), slices,
                         syn, fin, rst, is_ack, retx_count)
    view = segment.wire_view()
    reference = _reference_wire_view(segment)
    assert view == reference
    assert type(view[0]) is TcpWireView
    assert [type(info) for info in view[1]] == [RecordInfo] * len(slices)
    assert type(view[1]) is tuple
    assert all(type(info.is_start) is bool and type(info.is_end) is bool
               for info in view[1])
    assert type(view[2]) is bool
    assert len(view[0]) == len(TcpWireView._fields)
    assert all(len(info) == len(RecordInfo._fields) for info in view[1])

    packet = Packet(src="client", dst="server", size=54 + segment.payload_len,
                    segment=segment)
    wire = packet.wire_view()
    assert type(wire) is WireView and len(wire) == len(WireView._fields)
    assert wire == WireView(pid=packet.pid, src="client", dst="server",
                            size=packet.size, tcp=reference[0],
                            records=reference[1],
                            is_retransmit=reference[2])


def test_wire_view_of_a_bare_packet_equals_keyword_reference():
    packet = Packet(src="a", dst="b", size=60)
    wire = packet.wire_view()
    assert len(wire) == len(WireView._fields)
    assert wire == WireView(pid=packet.pid, src="a", dst="b", size=60,
                            tcp=None)


# -- records built with tuple.__new__ equal their keyword builds ----------------
#
# ``tuple.__new__(Cls, fields)`` checks neither arity nor field order, so
# each oracle compares a hot-path build with the NamedTuple built by
# keyword from the same inputs, and checks its length.

@given(st.integers(min_value=0, max_value=1 << 20))
def test_tls_record_wire_len_adds_header_and_tag(payload_len):
    record = TlsRecord(content_type=APPLICATION_DATA, payload_len=payload_len)
    assert record.wire_len == 5 + payload_len + 16


@given(st.lists(st.integers(min_value=0, max_value=3000), min_size=1,
                max_size=12),
       st.data())
def test_slice_stream_equals_keyword_reference(payload_lens, data):
    buf = SendBuffer()
    records = [TlsRecord(content_type=APPLICATION_DATA, payload_len=n)
               for n in payload_lens]
    starts = [buf.write(record) for record in records]
    seq = data.draw(st.integers(min_value=0, max_value=buf.total_written - 1))
    length = data.draw(st.integers(min_value=1,
                                   max_value=buf.total_written - seq))
    reference = []
    for record, start in zip(records, starts):
        lo = max(seq, start)
        hi = min(seq + length, start + record.wire_len)
        if hi > lo:
            reference.append(RecordSlice(record=record, offset=lo - start,
                                         length=hi - lo))
    slices = buf.slice_stream(seq, length)
    assert slices == tuple(reference)
    assert all(type(s) is RecordSlice and len(s) == len(RecordSlice._fields)
               for s in slices)


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.01),
                          st.sampled_from([54, 120, 1454])),
                min_size=1, max_size=20))
def test_delay_verdicts_equal_keyword_reference(arrivals):
    sim = Simulator(seed=1)
    policies = [
        UniformDelayPolicy(0.01),
        SpacingPolicy(0.002, SERVER_TO_CLIENT, match=lambda view: True),
        NetemJitterPolicy(sim, 0.005, SERVER_TO_CLIENT,
                          match=lambda view: True),
        TokenBucketPolicy(5e6),
    ]
    now = 0.0
    for gap, size in arrivals:
        now += gap
        view = Packet(src="server", dst="client", size=size).wire_view()
        for policy in policies:
            action = policy.process(view, SERVER_TO_CLIENT, now)
            assert type(action) is PolicyAction
            assert len(action) == len(PolicyAction._fields)
            if action.drop:
                assert action is DROP
                continue
            assert action.drop is False and action.release_at >= now
            assert action == PolicyAction(release_at=action.release_at)
        assert policies[0].process(view, SERVER_TO_CLIENT, now) == \
            PolicyAction(release_at=now + 0.01)


class _TransmitProbe:
    """The parts of a ServerConnection that ``_transmit`` touches."""

    def __init__(self, now, offset):
        self.sim = Simulator()
        self.sim.now = now
        self.tls = SimpleNamespace(
            conn=SimpleNamespace(send_buffer=SimpleNamespace(
                total_written=offset)))
        self.streams = {}
        self.tx_log = []

    def send_data_frame(self, frame):
        pass

    send_frame = send_data_frame


_frames = st.one_of(
    st.builds(DataFrame, stream_id=st.integers(1, 99),
              length=st.integers(0, 1370), end_stream=st.booleans(),
              object_ref=st.one_of(st.none(),
                                   st.builds(SimpleNamespace,
                                             path=st.sampled_from(["/", "/a"]))),
              serve_id=st.integers(0, 50),
              object_offset=st.integers(0, 10_000)),
    st.builds(HeadersFrame, stream_id=st.integers(1, 99),
              header_block_len=st.integers(0, 200),
              end_stream=st.booleans()),
    st.builds(PushPromiseFrame, stream_id=st.integers(1, 99),
              promised_stream_id=st.integers(2, 98)))


@given(frame=_frames, dup=st.booleans(),
       now=st.floats(min_value=0.0, max_value=100.0),
       offset=st.integers(min_value=0, max_value=1 << 24))
def test_tx_entry_equals_keyword_reference(frame, dup, now, offset):
    probe = _TransmitProbe(now, offset)
    ServerConnection._transmit(probe, frame.stream_id, frame, dup)
    [entry] = probe.tx_log
    is_data = isinstance(frame, DataFrame)
    assert type(entry) is TxEntry and len(entry) == len(TxEntry._fields)
    assert entry == TxEntry(
        time=now,
        stream_id=frame.stream_id,
        object_path=(frame.object_ref.path if is_data and frame.object_ref
                     else ""),
        serve_id=frame.serve_id if is_data else 0,
        tcp_offset=offset,
        length=frame.length if is_data else 0,
        is_data=is_data,
        end_stream=getattr(frame, "end_stream", False),
        duplicate=dup,
    )


def _reference_completed_records(captures, direction):
    """``TraceRecorder.completed_records`` with keyword builds."""
    open_records = {}
    completed = []
    for time, d, view, dropped in captures:
        if d != direction or dropped:
            continue
        for info in view.records:
            if info.content_type != 23:
                continue
            if info.is_start or info.record_id not in open_records:
                open_records[info.record_id] = time
            if info.is_end:
                completed.append(CompletedRecord(
                    record_id=info.record_id,
                    content_type=info.content_type,
                    wire_len=info.record_wire_len,
                    start_time=open_records.pop(info.record_id, time),
                    end_time=time,
                    direction=d,
                    final_packet_size=view.size,
                ))
    return completed


@given(st.lists(st.tuples(st.sampled_from([HANDSHAKE, APPLICATION_DATA]),
                          st.integers(min_value=0, max_value=3000)),
                min_size=1, max_size=4),
       st.data())
def test_completed_records_equal_keyword_reference(records, data):
    """Records cut across several packets, some dropped or resent, in
    both directions."""
    buf = SendBuffer()
    for content_type, payload_len in records:
        buf.write(TlsRecord(content_type=content_type,
                            payload_len=payload_len))
    segments, seq = [], 0
    while seq < buf.total_written:
        rest = buf.total_written - seq
        length = data.draw(st.integers(min_value=min(rest, 500),
                                       max_value=min(rest, 1460)))
        segments.append((seq, length))
        seq += length
    segments += data.draw(st.lists(st.sampled_from(segments), max_size=3))
    recorder = TraceRecorder()
    captures = []
    for index, (seq, length) in enumerate(segments):
        segment = TcpSegment("server", "client", 443, 40000, seq=seq,
                             payload_len=length,
                             slices=buf.slice_stream(seq, length))
        view = Packet(src="server", dst="client", size=54 + length,
                      segment=segment).wire_view()
        direction = data.draw(st.sampled_from([SERVER_TO_CLIENT,
                                               CLIENT_TO_SERVER]))
        captures.append((index * 0.001, direction, view,
                         data.draw(st.booleans())))
        recorder(*captures[-1])
    for direction in (SERVER_TO_CLIENT, CLIENT_TO_SERVER):
        completed = recorder.completed_records(direction)
        assert completed == _reference_completed_records(captures, direction)
        assert all(type(r) is CompletedRecord
                   and len(r) == len(CompletedRecord._fields)
                   for r in completed)


# -- spacing schedule: achieves the target gaps ------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=0.2), min_size=1,
                max_size=20),
       st.floats(min_value=0.001, max_value=0.2))
def test_spacing_schedule_achieves_target(gaps, target):
    holds = spacing_schedule(gaps, target)
    assert len(holds) == len(gaps) + 1
    assert all(h >= 0 for h in holds)
    # Release times (issue time + hold) are spaced at least `target`
    # apart whenever a hold was applied.
    elapsed = 0.0
    releases = [holds[0]]
    for gap, hold in zip(gaps, holds[1:]):
        elapsed += gap
        releases.append(elapsed + hold)
    for earlier, later in zip(releases, releases[1:]):
        assert later - earlier >= -1e-9
        assert later >= earlier  # monotone forwarding order


# -- priority tree: ready-share normalization ------------------------------------------

@given(st.lists(st.tuples(st.integers(min_value=1, max_value=50),
                          st.integers(min_value=1, max_value=256)),
                min_size=1, max_size=15, unique_by=lambda t: t[0]))
def test_priority_shares_normalize(streams):
    tree = PriorityTree()
    for stream_id, weight in streams:
        tree.add_stream(stream_id * 2 + 1, weight=weight)
    ready = [stream_id * 2 + 1 for stream_id, _ in streams]
    weights = tree.scheduling_weights(ready)
    assert math.isclose(sum(weights.values()), 1.0, rel_tol=1e-9)
    assert all(w > 0 for w in weights.values())


# -- estimator: conservation over serialized records ------------------------------------

@given(st.lists(st.integers(min_value=200, max_value=50_000), min_size=1,
                max_size=10))
@settings(max_examples=40)
def test_estimator_recovers_serialized_sizes_exactly(sizes):
    """Objects transmitted back-to-back with time gaps are recovered
    exactly -- the Fig. 1 serialized case as a property.

    Sizes whose final DATA record is tiny (<= ~90 payload bytes) are
    excluded: such tails are indistinguishable from control records on
    the wire, a real limitation of the size side-channel documented in
    ``test_estimator_tiny_tail_record_lost``.
    """
    from hypothesis import assume
    assume(all(s % 1370 == 0 or s % 1370 > 90 for s in sizes))
    estimator = SizeEstimator()
    records = []
    rid = 0
    clock = 0.0
    for obj_size in sizes:
        remaining = obj_size
        while remaining > 0:
            chunk = min(1370, remaining)
            remaining -= chunk
            rid += 1
            records.append(CompletedRecord(
                record_id=rid, content_type=23, wire_len=chunk + 30,
                start_time=clock, end_time=clock, direction="s2c",
                final_packet_size=chunk + 84))
            clock += 0.0001
        clock += 0.5  # inter-object quiet gap
    estimates = estimator.estimate_from_records(records)
    assert [e.size for e in estimates] == sizes


# -- degree metric: bounds and identity ---------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["/a", "/b", "/c"]),
                          st.integers(min_value=1, max_value=1400)),
                min_size=1, max_size=40))
def test_degree_bounds_property(pieces):
    offset = 0
    log = []
    serve_ids = {"/a": 1, "/b": 2, "/c": 3}
    for path, length in pieces:
        log.append(TxEntry(time=offset * 1e-6, stream_id=serve_ids[path],
                           object_path=path, serve_id=serve_ids[path],
                           tcp_offset=offset, length=length, is_data=True,
                           end_stream=False, duplicate=False))
        offset += length
    for path in {p for p, _ in pieces}:
        degree = degree_of_multiplexing(log, path)
        assert 0.0 <= degree < 1.0


@given(st.lists(st.integers(min_value=1, max_value=1400), min_size=1,
                max_size=20))
def test_degree_zero_for_lone_object(lengths):
    offset = 0
    log = []
    for length in lengths:
        log.append(TxEntry(time=0.0, stream_id=1, object_path="/only",
                           serve_id=1, tcp_offset=offset, length=length,
                           is_data=True, end_stream=False, duplicate=False))
        offset += length
    assert degree_of_multiplexing(log, "/only") == 0.0
