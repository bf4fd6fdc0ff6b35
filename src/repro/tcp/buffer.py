"""Send-side stream buffering and receive-side reassembly."""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from typing import Callable, Dict, List, Tuple

from repro.tcp.segment import RecordSlice


class SendBuffer:
    """The outgoing byte stream, annotated with TLS record positions.

    Applications (the TLS session) append whole records; the connection
    cuts MSS-sized spans out of the stream with :meth:`slice_stream`.
    Records below the cumulative-ACK point are pruned so memory stays
    proportional to the in-flight window.
    """

    def __init__(self):
        self._records: List[object] = []
        self._starts: List[int] = []
        self.total_written = 0

    def write(self, record) -> int:
        """Append ``record`` (with ``wire_len``) and return its stream offset."""
        offset = self.total_written
        self._records.append(record)
        self._starts.append(offset)
        self.total_written += record.wire_len
        return offset

    def slice_stream(self, seq: int, length: int) -> Tuple[RecordSlice, ...]:
        """Record slices overlapping stream span ``[seq, seq + length)``."""
        if length <= 0:
            return ()
        if seq + length > self.total_written:
            raise ValueError("slice beyond written stream")
        idx = bisect_right(self._starts, seq) - 1
        if idx < 0:
            raise ValueError("slice below retained stream window")
        records = self._records
        starts = self._starts
        count = len(records)
        slices: List[RecordSlice] = []
        end = seq + length
        while idx < count:
            start = starts[idx]
            if start >= end:
                break
            record = records[idx]
            rec_end = start + record.wire_len
            lo = seq if seq > start else start
            hi = end if end < rec_end else rec_end
            if hi > lo:
                slices.append(tuple.__new__(
                    RecordSlice, (record, lo - start, hi - lo)))
            idx += 1
        return tuple(slices)

    def release(self, upto_seq: int) -> None:
        """Drop records wholly below ``upto_seq`` (they are ACKed)."""
        records = self._records
        starts = self._starts
        count = len(records)
        keep = 0
        while keep < count and starts[keep] + records[keep].wire_len <= upto_seq:
            keep += 1
        if keep:
            del records[:keep]
            del starts[:keep]


class ReceiveBuffer:
    """In-order reassembly with optional duplicate re-delivery.

    Retransmitted segments always reuse the boundaries of their first
    transmission, so reassembly works on whole segments.  When
    ``deliver_duplicates`` is on, copies of already-delivered spans are
    handed to the application flagged ``dup=True`` -- the mode that
    reproduces the paper's observed re-serving of objects whose GET was
    retransmitted (Fig. 4).
    """

    def __init__(self, deliver: Callable[[Tuple[RecordSlice, ...], bool], None],
                 deliver_duplicates: bool = False):
        self._deliver = deliver
        self.deliver_duplicates = deliver_duplicates
        self.rcv_nxt = 0
        self._out_of_order: Dict[int, Tuple[int, Tuple[RecordSlice, ...]]] = {}
        #: Min-heap of ``_out_of_order``'s starts; a start no longer
        #: buffered is dropped when it reaches the top.
        self._starts: List[int] = []
        self.duplicate_segments = 0
        self.out_of_order_segments = 0

    def on_segment(self, seq: int, length: int,
                   slices: Tuple[RecordSlice, ...]) -> bool:
        """Process one data segment.

        Returns ``True`` when the segment advanced ``rcv_nxt`` (in-order
        data), ``False`` for duplicates and out-of-order arrivals (the
        caller acks either way; repeated acks at the same ``rcv_nxt``
        are the dup-ACKs the sender counts).
        """
        if length <= 0:
            return False
        if seq + length <= self.rcv_nxt:
            self.duplicate_segments += 1
            if self.deliver_duplicates and slices:
                self._deliver(slices, True)
            return False
        if seq > self.rcv_nxt:
            self.out_of_order_segments += 1
            if seq not in self._out_of_order:
                self._out_of_order[seq] = (length, slices)
                heappush(self._starts, seq)
            return False

        # In-order (seq == rcv_nxt; partial overlaps cannot occur because
        # retransmissions preserve segment boundaries).
        self.rcv_nxt = seq + length
        self._deliver(slices, False)
        self._drain()
        return True

    def _drain(self) -> None:
        buffered = self._out_of_order
        while self.rcv_nxt in buffered:
            length, slices = buffered.pop(self.rcv_nxt)
            self.rcv_nxt += length
            self._deliver(slices, False)
        starts = self._starts
        if not buffered:
            starts.clear()
            return
        # rcv_nxt only grows, so a start once dropped is never buffered
        # again and the heap's first live start is the lowest one.
        while starts[0] not in buffered:
            heappop(starts)
        if starts[0] < self.rcv_nxt:
            # Drop any buffered segments the cumulative point ran past.
            stale = [s for s in buffered
                     if s + buffered[s][0] <= self.rcv_nxt]
            for s in stale:
                del buffered[s]
