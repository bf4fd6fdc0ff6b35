"""TCP segments and the record slices they carry.

Instead of shuttling literal bytes, the simulation moves *annotated byte
counts*: a segment knows which spans of which TLS records it carries.
That is enough to (a) reconstruct exactly what a wire sniffer sees
(record headers are cleartext) and (b) let the receiving TLS session
reassemble records for the application, without serializing anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from repro.simnet.packet import RecordInfo, TcpWireView


class RecordSlice(NamedTuple):
    """A contiguous span of one TLS record carried by one segment.

    ``record`` must expose ``record_id``, ``content_type`` and
    ``wire_len``; see :class:`repro.tls.record.TlsRecord`.
    """

    record: object
    offset: int
    length: int

    @property
    def is_start(self) -> bool:
        return self.offset == 0

    @property
    def is_end(self) -> bool:
        return self.offset + self.length == self.record.wire_len


@dataclass(slots=True)
class TcpSegment:
    """One TCP segment (the payload of one simulated packet)."""

    src: str
    dst: str
    src_port: int
    dst_port: int
    seq: int = 0
    ack_no: int = 0
    payload_len: int = 0
    slices: Tuple[RecordSlice, ...] = ()
    syn: bool = False
    fin: bool = False
    rst: bool = False
    is_ack: bool = True
    retx_count: int = 0
    #: For pure ACKs: the ``retx_count`` of the data segment whose
    #: arrival triggered this ACK -- the moral equivalent of the TCP
    #: timestamp echo, letting the sender recognise a *spurious*
    #: retransmission (the original arrived after all; Eifel/F-RTO).
    ts_echo_retx: int = 0

    def wire_view(self):
        """Return ``(TcpWireView, tuple[RecordInfo], is_retransmit)``,
        one :class:`RecordInfo` (the slice's cleartext description) per
        slice."""
        tcp_view = tuple.__new__(TcpWireView, (
            self.src_port, self.dst_port, self.seq, self.ack_no,
            self.payload_len, self.syn, self.fin, self.rst, self.is_ack))
        infos = []
        for record, offset, length in self.slices:
            wire_len = record.wire_len
            infos.append(tuple.__new__(RecordInfo, (
                record.record_id, record.content_type, wire_len, length,
                offset == 0, offset + length == wire_len)))
        return (tcp_view, tuple(infos), self.retx_count > 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(f for f, on in
                        (("S", self.syn), ("F", self.fin), ("R", self.rst)) if on)
        return (f"TcpSegment({self.src}:{self.src_port}->{self.dst}:{self.dst_port}"
                f" seq={self.seq} len={self.payload_len} ack={self.ack_no}"
                f" flags={flags or '-'} retx={self.retx_count})")
