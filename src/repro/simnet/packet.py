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
view types are ``NamedTuple`` classes: immutable and without a
``__dict__``.  A NamedTuple's generated ``__new__`` is a Python function
compiled from a string, so the per-packet and per-frame builders call
``tuple.__new__(Cls, fields)`` instead: one C call, with every field
given in order, since ``tuple.__new__`` checks neither arity nor names
(``tests/test_properties.py`` compares each build with its keyword
twin).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional, Tuple

_next_packet_id = itertools.count(1).__next__

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
        for record in self.records:
            if record.content_type == 23:
                return True
        return False


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
    pid: int = field(default_factory=_next_packet_id)

    def wire_view(self) -> WireView:
        """Build the adversary-visible view of this packet."""
        segment = self.segment
        if segment is None:
            return tuple.__new__(WireView, (self.pid, self.src, self.dst,
                                            self.size, None, (), False))
        tcp_view, records, is_retransmit = segment.wire_view()
        return tuple.__new__(WireView, (self.pid, self.src, self.dst,
                                        self.size, tcp_view, records,
                                        is_retransmit))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Packet(pid={self.pid}, {self.src}->{self.dst}, size={self.size})"
