"""TLS records."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

#: TLS record header (cleartext): content type, version, length.
RECORD_HEADER_LEN = 5
#: AEAD authentication tag added to every encrypted record body.
AEAD_OVERHEAD = 16

#: Content types (the wire values, visible to any on-path observer).
CHANGE_CIPHER_SPEC = 20
ALERT = 21
HANDSHAKE = 22
APPLICATION_DATA = 23

_next_record_id = itertools.count(1).__next__


@dataclass(slots=True)
class TlsRecord:
    """One TLS record riding the TCP byte stream.

    ``payload_len`` is the plaintext length; ``wire_len`` adds the
    cleartext header and the AEAD tag, and is the size an observer can
    read off the record header.  It is stored at construction (records
    are never resized), since every segment cut and wire view reads it.  ``payload`` carries the simulated
    plaintext (HTTP/2 frames for application data) -- endpoints may read
    it, the adversary may not.
    """

    content_type: int
    payload_len: int
    payload: Any = None
    record_id: int = field(default_factory=_next_record_id)
    wire_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload_len < 0:
            raise ValueError("negative record payload length")
        self.wire_len = RECORD_HEADER_LEN + self.payload_len + AEAD_OVERHEAD

    @property
    def is_application_data(self) -> bool:
        return self.content_type == APPLICATION_DATA

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TlsRecord(id={self.record_id}, type={self.content_type},"
                f" wire_len={self.wire_len})")
