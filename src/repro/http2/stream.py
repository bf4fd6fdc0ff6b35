"""HTTP/2 stream state machine (RFC 7540 section 5.1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.http2.errors import ErrorCode, StreamError

# Stream states.
IDLE = "idle"
OPEN = "open"
HALF_CLOSED_LOCAL = "half-closed-local"
HALF_CLOSED_REMOTE = "half-closed-remote"
CLOSED = "closed"


@dataclass
class StreamState:
    """State and byte accounting for one stream at one endpoint."""

    stream_id: int
    state: str = IDLE
    bytes_sent: int = 0
    reset_code: Optional[int] = None
    #: Set once a HEADERS with END_STREAM or final DATA was sent/received.
    end_stream_sent: bool = False
    end_stream_received: bool = False

    # -- local actions -------------------------------------------------------

    def on_send_data(self, nbytes: int, end_stream: bool = False) -> None:
        if self.state not in (OPEN, HALF_CLOSED_REMOTE):
            raise StreamError(self.stream_id,
                              f"DATA sent in state {self.state}",
                              ErrorCode.STREAM_CLOSED)
        self.bytes_sent += nbytes
        if end_stream:
            self._local_end()

    # -- remote actions ----------------------------------------------------------

    def on_recv_headers(self, end_stream: bool = False) -> None:
        if self.state == IDLE:
            self.state = OPEN
        elif self.state == CLOSED:
            # Frames racing a reset are tolerated and ignored upstream.
            return
        if end_stream:
            self._remote_end()

    def on_recv_rst(self, code: int) -> None:
        self.reset_code = code
        self.state = CLOSED

    # -- helpers ------------------------------------------------------------------

    def _local_end(self) -> None:
        self.end_stream_sent = True
        if self.state == OPEN:
            self.state = HALF_CLOSED_LOCAL
        elif self.state == HALF_CLOSED_REMOTE:
            self.state = CLOSED

    def _remote_end(self) -> None:
        self.end_stream_received = True
        if self.state == OPEN:
            self.state = HALF_CLOSED_REMOTE
        elif self.state == HALF_CLOSED_LOCAL:
            self.state = CLOSED

    @property
    def is_closed(self) -> bool:
        return self.state == CLOSED

    @property
    def was_reset(self) -> bool:
        return self.reset_code is not None
