"""QUIC packets and frames (RFC 9000 subset, size-faithful).

A :class:`QuicPacket` is the datagram payload; unlike TCP segments its
wire view exposes *nothing* but the total size -- QUIC encrypts frame
headers, stream ids and even packet numbers, so the adversary's
``WireView`` carries no TCP header and no record slices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Tuple

#: Short-header overhead: flags + dest CID (8) + packet number (enc).
PACKET_HEADER_LEN = 12
#: AEAD tag per packet.
PACKET_AEAD_OVERHEAD = 16
#: STREAM frame header: type + stream id + offset + length (varints).
STREAM_FRAME_HEADER = 8
#: ACK frame wire size (type + largest + delay + 1 range).
ACK_FRAME_LEN = 12

_packet_numbers = itertools.count(1)


@dataclass(frozen=True)
class StreamFrame:
    """A span of one stream's bytes.

    ``payload`` carries simulated plaintext (HTTP/3-lite messages) for
    endpoint delivery; the adversary never sees it.
    """

    stream_id: int
    offset: int
    length: int
    fin: bool = False
    payload: object = None

    @property
    def wire_size(self) -> int:
        return STREAM_FRAME_HEADER + self.length

    @property
    def end_offset(self) -> int:
        return self.offset + self.length


@dataclass(frozen=True)
class AckFrame:
    """Cumulative+range acknowledgement (collapsed to largest-acked)."""

    largest_acked: int
    #: Explicitly acknowledged packet numbers (sim convenience; real
    #: QUIC encodes ranges -- the wire size constant accounts for one).
    acked: Tuple[int, ...] = ()

    @property
    def wire_size(self) -> int:
        return ACK_FRAME_LEN


@dataclass
class QuicPacket:
    """One short-header QUIC packet."""

    frames: Tuple = ()
    packet_number: int = field(default_factory=lambda: next(_packet_numbers))
    is_retransmission: bool = False

    @property
    def wire_size(self) -> int:
        return (PACKET_HEADER_LEN + PACKET_AEAD_OVERHEAD
                + sum(f.wire_size for f in self.frames))

    def wire_view(self):
        """QUIC encrypts everything: no TCP view, no record info.

        Retransmission status is NOT observable on a QUIC wire (packet
        numbers are encrypted and never reused); it is exposed to
        metrics code only via the packet object, not the wire view.
        """
        return None, (), False
