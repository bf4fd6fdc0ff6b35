"""HTTP/2 frames (RFC 7540 section 6).

Frames carry their *wire sizes* (9-byte header plus payload) so the TLS
and TCP layers below see exactly the byte counts a real stack would put
on the wire.  DATA frames additionally carry ground-truth attribution
(which web object, which serve instance) used only by metrics and tests,
never by the adversary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Every frame starts with a 9-byte header.
FRAME_HEADER_LEN = 9


@dataclass(slots=True)
class Frame:
    """Base frame: subclasses define their payload length."""

    stream_id: int = 0

    @property
    def payload_len(self) -> int:
        raise NotImplementedError

    @property
    def wire_size(self) -> int:
        return FRAME_HEADER_LEN + self.payload_len

    @property
    def type_name(self) -> str:
        return type(self).__name__.replace("Frame", "").upper()


@dataclass(slots=True)
class DataFrame(Frame):
    """A chunk of response body.

    ``object_ref``/``serve_id``/``object_offset`` are simulation ground
    truth: which web object these bytes belong to, which serve instance
    produced them (duplicates from retransmitted GETs get fresh serve
    ids), and the offset within the object.
    """

    length: int = 0
    end_stream: bool = False
    object_ref: Any = None
    serve_id: int = 0
    object_offset: int = 0

    @property
    def payload_len(self) -> int:
        return self.length


@dataclass(slots=True)
class HeadersFrame(Frame):
    """Request or response headers (one HPACK-encoded block)."""

    headers: Dict[str, str] = field(default_factory=dict)
    header_block_len: int = 0
    end_stream: bool = False
    end_headers: bool = True
    priority_weight: Optional[int] = None

    @property
    def payload_len(self) -> int:
        extra = 5 if self.priority_weight is not None else 0
        return self.header_block_len + extra


@dataclass(slots=True)
class PushPromiseFrame(Frame):
    """Server push announcement (RFC 7540 section 6.6)."""

    promised_stream_id: int = 0
    headers: Dict[str, str] = field(default_factory=dict)
    header_block_len: int = 0

    @property
    def payload_len(self) -> int:
        return 4 + self.header_block_len


@dataclass(slots=True)
class SettingsFrame(Frame):
    """Connection settings exchange."""

    settings: Dict[int, int] = field(default_factory=dict)
    ack: bool = False

    @property
    def payload_len(self) -> int:
        return 0 if self.ack else 6 * len(self.settings)


@dataclass(slots=True)
class RstStreamFrame(Frame):
    """Abort one stream -- the frame the targeted-drop phase provokes."""

    error_code: int = 0x8  # CANCEL

    @property
    def payload_len(self) -> int:
        return 4


@dataclass(slots=True)
class GoAwayFrame(Frame):
    """Connection shutdown notice."""

    last_stream_id: int = 0
    error_code: int = 0

    @property
    def payload_len(self) -> int:
        return 8


@dataclass(slots=True)
class WindowUpdateFrame(Frame):
    """Flow-control credit."""

    increment: int = 0

    @property
    def payload_len(self) -> int:
        return 4


@dataclass(slots=True)
class PingFrame(Frame):
    """Liveness probe."""

    ack: bool = False

    @property
    def payload_len(self) -> int:
        return 8


@dataclass(slots=True)
class PriorityFrame(Frame):
    """Stream reprioritization."""

    depends_on: int = 0
    weight: int = 16
    exclusive: bool = False

    @property
    def payload_len(self) -> int:
        return 5
