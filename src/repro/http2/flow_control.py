"""Connection- and stream-level flow control (RFC 7540 section 5.2)."""

from __future__ import annotations

from repro.http2.errors import ErrorCode, Http2ProtocolError

#: Flow-control windows may never exceed 2^31 - 1.
MAX_WINDOW = (1 << 31) - 1


class FlowControlWindow:
    """A send-side credit counter."""

    def __init__(self, initial: int, label: str = "window"):
        if not 0 <= initial <= MAX_WINDOW:
            raise ValueError(f"initial window {initial} out of range")
        self._available = initial
        self.label = label

    @property
    def available(self) -> int:
        return self._available

    def can_send(self, nbytes: int) -> bool:
        return nbytes <= self._available

    def consume(self, nbytes: int) -> None:
        """Spend credit; raises on overdraft (a protocol bug)."""
        if nbytes > self._available:
            raise Http2ProtocolError(
                f"{self.label}: consume {nbytes} > available {self._available}",
                ErrorCode.FLOW_CONTROL_ERROR)
        self._available -= nbytes

    def replenish(self, nbytes: int) -> None:
        """Add credit from a WINDOW_UPDATE."""
        if nbytes <= 0:
            raise Http2ProtocolError("WINDOW_UPDATE increment must be positive",
                                     ErrorCode.PROTOCOL_ERROR)
        if self._available + nbytes > MAX_WINDOW:
            raise Http2ProtocolError(f"{self.label}: window overflow",
                                     ErrorCode.FLOW_CONTROL_ERROR)
        self._available += nbytes


#: A WINDOW_UPDATE is due once more than ``1/UPDATE_DIVISOR`` of the
#: receive window has been consumed.
UPDATE_DIVISOR = 4


class ReceiveWindowManager:
    """Receive-side accounting that auto-issues WINDOW_UPDATE credit.

    Mirrors the browser behaviour: once more than a quarter
    (:data:`UPDATE_DIVISOR`) of the window has been consumed, send a
    WINDOW_UPDATE restoring it.
    """

    def __init__(self, initial: int):
        self.initial = initial
        self.consumed = 0

    def on_data(self, nbytes: int) -> int:
        """Account received bytes; returns the update increment to send
        (0 when no update is due)."""
        self.consumed += nbytes
        if self.consumed > self.initial // UPDATE_DIVISOR:
            increment, self.consumed = self.consumed, 0
            return increment
        return 0
