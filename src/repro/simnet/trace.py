"""Pcap-like capture of wire views at the middlebox.

The adversary's traffic monitor (``tshark`` in the paper) and the
offline analysis both consume these captures.  Only
:class:`~repro.simnet.packet.WireView` data is stored -- the capture is
exactly what a real on-path sniffer would have.

Storage is columnar and append-only: the per-packet tap appends one
scalar to each of four parallel arrays instead of allocating a
``CapturedPacket`` object per packet, and running counters (packets per
direction, retransmissions) are maintained at append time so the
telemetry the session runner reads after every run is O(1) instead of a
full-trace scan.  ``CapturedPacket`` remains the *view* type: accessor
methods materialize it lazily for analysis code, which runs once per
session rather than once per packet.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

from repro.simnet.packet import WireView


class CapturedPacket(NamedTuple):
    """One packet as seen transiting the middlebox."""

    time: float
    direction: str
    view: WireView
    dropped: bool


class CompletedRecord(NamedTuple):
    """A TLS record whose last byte has been observed.

    ``start_time``/``end_time`` bracket the packets that carried it;
    ``wire_len`` includes the 5-byte record header and AEAD overhead,
    both visible on the wire.
    """

    record_id: int
    content_type: int
    wire_len: int
    start_time: float
    end_time: float
    direction: str
    #: Size of the packet that carried the record's final byte.  Sub-MTU
    #: final packets are the delimiters of Fig. 1.
    final_packet_size: int


class TraceRecorder:
    """Accumulates captured packets and derives record-level views."""

    __slots__ = ("_times", "_directions", "_views", "_dropped",
                 "_retransmits")

    def __init__(self):
        self._times: List[float] = []
        self._directions: List[str] = []
        self._views: List[WireView] = []
        self._dropped: List[bool] = []
        #: direction -> retransmitted-packet count (dropped included),
        #: maintained at append time for O(1) session telemetry.
        self._retransmits: dict = {}

    # The middlebox tap signature.
    def __call__(self, now: float, direction: str, view: WireView, dropped: bool) -> None:
        self._times.append(now)
        self._directions.append(direction)
        self._views.append(view)
        self._dropped.append(dropped)
        if view.is_retransmit:
            self._retransmits[direction] = \
                self._retransmits.get(direction, 0) + 1

    def __len__(self) -> int:
        return len(self._times)

    def clear(self) -> None:
        """Forget everything captured so far."""
        self._times.clear()
        self._directions.clear()
        self._views.clear()
        self._dropped.clear()
        self._retransmits.clear()

    def packets(self, direction: Optional[str] = None,
                include_dropped: bool = False) -> List[CapturedPacket]:
        """Captured packets, optionally filtered by direction."""
        return [
            CapturedPacket(t, d, v, x)
            for t, d, v, x in zip(self._times, self._directions,
                                  self._views, self._dropped)
            if (direction is None or d == direction)
            and (include_dropped or not x)
        ]

    def completed_records(self, direction: str,
                          content_type: Optional[int] = 23) -> List[CompletedRecord]:
        """Reassemble record-level sizes from the packet slices.

        Follows delivered (non-dropped) packets only, since only those
        reach the far endpoint.  Records are emitted in order of their
        final slice.  Retransmitted duplicate slices of an already
        completed record start a fresh logical record, mirroring what a
        sniffer tracking the byte stream sees as duplicated spans.
        """
        open_records: dict = {}
        completed: List[CompletedRecord] = []
        for time, d, view, dropped in zip(self._times, self._directions,
                                          self._views, self._dropped):
            if d != direction or dropped:
                continue
            for info in view.records:
                if content_type is not None and info.content_type != content_type:
                    continue
                key = info.record_id
                if info.is_start or key not in open_records:
                    open_records[key] = time
                if info.is_end:
                    start_time = open_records.pop(key, time)
                    completed.append(tuple.__new__(CompletedRecord, (
                        info.record_id, info.content_type,
                        info.record_wire_len, start_time, time, d,
                        view.size)))
        return completed

    def count(self, predicate: Callable[[CapturedPacket], bool]) -> int:
        """Number of captured packets satisfying ``predicate``."""
        return sum(1 for p in self.packets(include_dropped=True)
                   if predicate(p))

    def retransmit_count(self, direction: Optional[str] = None) -> int:
        """O(1) count of packets flagged as TCP retransmissions
        (dropped packets included, matching a seq-tracking sniffer)."""
        if direction is not None:
            return self._retransmits.get(direction, 0)
        return sum(self._retransmits.values())
