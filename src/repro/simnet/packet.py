"""Packets and the adversary-visible *wire view*.

A :class:`Packet` is the unit handled by links and middleboxes.  Its
``segment`` attribute carries the transport payload (a
:class:`repro.tcp.segment.TcpSegment`), which in turn carries TLS record
slices and, inside those, HTTP/2 frames.

The adversary in the paper is non-intrusive: it reads packet sizes,
cleartext TCP/IP headers and cleartext TLS *record headers* (content type
and length -- the paper's ``ssl.record.content_type == 23`` filter), but
never plaintext.  :class:`WireView` is the codified version of that
boundary: every field on it is derivable from cleartext bytes on a real
wire.  Adversary code (``repro.core``) only ever consumes wire views;
ground truth (which web object a record belongs to) stays on the
underlying objects and is used exclusively by metrics and tests.

One wire view is built per packet at every middlebox crossing, so the
view types are ``NamedTuple`` classes: immutable, without a
``__dict__``, and built by a single C-level ``tuple.__new__`` rather
than one ``object.__setattr__`` per field as a frozen dataclass would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional, Tuple

_packet_ids = itertools.count(1)

#: Overhead bytes added to the transport payload for Ethernet + IP + TCP
#: headers when computing on-wire packet size.
HEADER_OVERHEAD = 54

#: Conventional MTU used for delimiter detection (Fig. 1 of the paper):
#: a packet strictly smaller than a full-sized one marks an object tail.
MTU = 1500


class RecordInfo(NamedTuple):
    """Cleartext-visible information about (a slice of) a TLS record.

    TLS record headers are not encrypted, so an on-path device that
    reassembles the TCP byte positions can recover, for every record:
    its content type, its total wire length, and where it starts and
    ends.  One ``RecordInfo`` describes the part of one record carried
    by one packet.
    """

    record_id: int
    content_type: int
    record_wire_len: int
    bytes_in_packet: int
    is_start: bool
    is_end: bool

    @property
    def is_application_data(self) -> bool:
        """True for content type 23 (TLS application data)."""
        return self.content_type == 23


class TcpWireView(NamedTuple):
    """Cleartext TCP header fields."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    payload_len: int
    syn: bool = False
    fin: bool = False
    rst: bool = False
    is_ack: bool = True

    @property
    def is_pure_ack(self) -> bool:
        """True when the segment carries no payload and no SYN/FIN/RST."""
        return self.payload_len == 0 and not (self.syn or self.fin or self.rst)


class WireView(NamedTuple):
    """Everything an on-path, non-decrypting observer may read."""

    pid: int
    src: str
    dst: str
    size: int
    tcp: Optional[TcpWireView]
    records: Tuple[RecordInfo, ...] = ()
    is_retransmit: bool = False

    @property
    def has_application_data(self) -> bool:
        """True when the packet carries any TLS application-data bytes."""
        return any(r.is_application_data for r in self.records)

    @property
    def application_bytes(self) -> int:
        """Total TLS application-data bytes (header+ciphertext) carried."""
        return sum(r.bytes_in_packet for r in self.records if r.is_application_data)


@dataclass(slots=True)
class Packet:
    """A network packet in flight.

    ``size`` is the full on-wire size (payload plus
    :data:`HEADER_OVERHEAD`).  ``segment`` is the transport payload; it
    must provide ``wire_view()`` returning ``(TcpWireView,
    tuple[RecordInfo, ...], is_retransmit)`` when present.
    """

    src: str
    dst: str
    size: int
    segment: Any = None
    created_at: float = 0.0
    pid: int = field(default_factory=lambda: next(_packet_ids))

    def wire_view(self) -> WireView:
        """Build the adversary-visible view of this packet."""
        tcp_view: Optional[TcpWireView] = None
        records: Tuple[RecordInfo, ...] = ()
        is_retransmit = False
        if self.segment is not None:
            tcp_view, records, is_retransmit = self.segment.wire_view()
        return WireView(
            pid=self.pid,
            src=self.src,
            dst=self.dst,
            size=self.size,
            tcp=tcp_view,
            records=records,
            is_retransmit=is_retransmit,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Packet(pid={self.pid}, {self.src}->{self.dst}, size={self.size})"
