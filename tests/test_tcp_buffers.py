"""Send-buffer slicing and receive-buffer reassembly tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.buffer import ReceiveBuffer, SendBuffer
from repro.tls.record import APPLICATION_DATA, TlsRecord


def record(n):
    return TlsRecord(content_type=APPLICATION_DATA, payload_len=n - 21)


def test_write_returns_monotonic_offsets():
    buf = SendBuffer()
    assert buf.write(record(100)) == 0
    assert buf.write(record(50)) == 100
    assert buf.total_written == 150


def test_slice_whole_record():
    buf = SendBuffer()
    rec = record(100)
    buf.write(rec)
    slices = buf.slice_stream(0, 100)
    assert len(slices) == 1
    assert slices[0].record is rec
    assert slices[0].is_start and slices[0].is_end


def test_slice_spanning_records():
    buf = SendBuffer()
    first, second = record(100), record(100)
    buf.write(first)
    buf.write(second)
    slices = buf.slice_stream(50, 100)
    assert [s.record for s in slices] == [first, second]
    assert slices[0].offset == 50 and slices[0].length == 50
    assert not slices[0].is_start and slices[0].is_end
    assert slices[1].offset == 0 and slices[1].length == 50
    assert slices[1].is_start and not slices[1].is_end


def test_slice_lengths_sum():
    buf = SendBuffer()
    for n in (64, 1400, 333, 1400):
        buf.write(record(n))
    slices = buf.slice_stream(10, 3000)
    assert sum(s.length for s in slices) == 3000


def test_slice_beyond_stream_raises():
    buf = SendBuffer()
    buf.write(record(100))
    with pytest.raises(ValueError):
        buf.slice_stream(50, 100)


def test_release_prunes_acked_records():
    buf = SendBuffer()
    for _ in range(5):
        buf.write(record(100))
    buf.release(250)
    assert len(buf._records) == 3  # record at 200 is partially acked
    # Remaining stream still sliceable.
    slices = buf.slice_stream(250, 100)
    assert sum(s.length for s in slices) == 100


def test_slice_below_released_window_raises():
    buf = SendBuffer()
    for _ in range(3):
        buf.write(record(100))
    buf.release(200)
    with pytest.raises(ValueError):
        buf.slice_stream(0, 100)


def make_receiver(deliver_duplicates=False):
    delivered = []
    buf = ReceiveBuffer(lambda slices, dup: delivered.append((slices, dup)),
                        deliver_duplicates=deliver_duplicates)
    return buf, delivered


def seg_slices(rec):
    from repro.tcp.segment import RecordSlice
    return (RecordSlice(rec, 0, rec.wire_len),)


def test_in_order_delivery():
    buf, delivered = make_receiver()
    rec = record(100)
    assert buf.on_segment(0, 100, seg_slices(rec)) is True
    assert buf.rcv_nxt == 100
    assert len(delivered) == 1 and delivered[0][1] is False


def test_out_of_order_buffered_then_drained():
    buf, delivered = make_receiver()
    r1, r2, r3 = record(100), record(100), record(100)
    assert buf.on_segment(100, 100, seg_slices(r2)) is False
    assert buf.on_segment(200, 100, seg_slices(r3)) is False
    assert len(delivered) == 0
    assert buf.on_segment(0, 100, seg_slices(r1)) is True
    assert buf.rcv_nxt == 300
    assert [s[0][0].record for s in delivered] == [r1, r2, r3]


def test_duplicate_ignored_by_default():
    buf, delivered = make_receiver()
    rec = record(100)
    buf.on_segment(0, 100, seg_slices(rec))
    assert buf.on_segment(0, 100, seg_slices(rec)) is False
    assert len(delivered) == 1
    assert buf.duplicate_segments == 1


def test_duplicate_redelivered_in_paper_mode():
    buf, delivered = make_receiver(deliver_duplicates=True)
    rec = record(100)
    buf.on_segment(0, 100, seg_slices(rec))
    buf.on_segment(0, 100, seg_slices(rec))
    assert [dup for _, dup in delivered] == [False, True]


def test_repeated_ooo_segment_not_double_buffered():
    buf, delivered = make_receiver()
    rec = record(100)
    buf.on_segment(100, 100, seg_slices(rec))
    buf.on_segment(100, 100, seg_slices(rec))
    buf.on_segment(0, 100, seg_slices(record(100)))
    # Drain delivers the buffered segment exactly once.
    assert len(delivered) == 2


def test_buffered_segments_counter():
    buf, _ = make_receiver()
    buf.on_segment(100, 100, seg_slices(record(100)))
    buf.on_segment(300, 100, seg_slices(record(100)))
    assert len(buf._out_of_order) == 2


class ReferenceReceiver:
    """The reassembly as it was: a stale sweep after every in-order
    segment."""

    def __init__(self, deliver, deliver_duplicates):
        self._deliver = deliver
        self.deliver_duplicates = deliver_duplicates
        self.rcv_nxt = 0
        self._out_of_order = {}
        self.duplicate_segments = 0
        self.out_of_order_segments = 0

    def on_segment(self, seq, length, slices):
        if length <= 0:
            return False
        if seq + length <= self.rcv_nxt:
            self.duplicate_segments += 1
            if self.deliver_duplicates and slices:
                self._deliver(slices, True)
            return False
        if seq > self.rcv_nxt:
            self.out_of_order_segments += 1
            self._out_of_order.setdefault(seq, (length, slices))
            return False
        self.rcv_nxt = seq + length
        self._deliver(slices, False)
        while self.rcv_nxt in self._out_of_order:
            length, slices = self._out_of_order.pop(self.rcv_nxt)
            self.rcv_nxt += length
            self._deliver(slices, False)
        stale = [s for s in self._out_of_order
                 if s + self._out_of_order[s][0] <= self.rcv_nxt]
        for s in stale:
            del self._out_of_order[s]
        return True


def segmentations(draw, total):
    """Segment boundaries over ``[0, total)``, as ``(seq, length)``."""
    cuts = sorted(draw(st.sets(st.integers(min_value=1,
                                           max_value=total - 1))))
    bounds = [0] + cuts + [total]
    return [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


@st.composite
def arrivals(draw):
    total = draw(st.integers(min_value=2, max_value=40))
    # Mostly one segmentation; a second one yields the partial overlaps
    # that leave buffered segments below the cumulative point.
    segments = segmentations(draw, total)
    if draw(st.booleans()):
        segments += segmentations(draw, total)
    order = draw(st.lists(st.sampled_from(segments), max_size=60))
    return order + draw(st.permutations(segments))


@settings(max_examples=200, deadline=None)
@given(order=arrivals(), deliver_duplicates=st.booleans())
def test_receive_buffer_matches_the_sweep_after_every_segment(
        order, deliver_duplicates):
    got, want = [], []
    buf = ReceiveBuffer(lambda slices, dup: got.append((slices, dup)),
                        deliver_duplicates=deliver_duplicates)
    ref = ReferenceReceiver(lambda slices, dup: want.append((slices, dup)),
                            deliver_duplicates)
    for seq, length in order:
        slices = (("segment", seq, length),)
        assert buf.on_segment(seq, length, slices) == ref.on_segment(
            seq, length, slices)
        assert got == want
        assert buf.rcv_nxt == ref.rcv_nxt
        assert buf._out_of_order == ref._out_of_order
        assert (buf.duplicate_segments, buf.out_of_order_segments) == (
            ref.duplicate_segments, ref.out_of_order_segments)
