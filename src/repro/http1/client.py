"""HTTP/1.1 client with keep-alive pipelining."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.http1.server import H1BodyChunk, H1Request
from repro.simnet.topology import SERVER_ADDR
from repro.tcp.connection import TcpConfig, TcpConnection, TcpStack
from repro.tls.record import TlsRecord
from repro.tls.session import HTTPS_PORT, TlsSession

#: Typical HTTP/1.1 request size (request line + headers, no HPACK).
REQUEST_BYTES_BASE = 310


@dataclass
class Http1Exchange:
    """One in-flight or completed request/response pair."""

    path: str
    requested_at: float
    first_byte_at: Optional[float] = None
    completed_at: Optional[float] = None
    bytes_received: int = 0
    on_complete: Optional[Callable[["Http1Exchange"], None]] = None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None


class Http1Client:
    """Issues pipelined GETs; responses arrive strictly in order."""

    def __init__(self, sim, host):
        self.sim = sim
        self.host = host
        self.tcp = TcpStack(sim, host, TcpConfig())
        self.tls: Optional[TlsSession] = None
        self.exchanges: List[Http1Exchange] = []
        self._response_cursor = 0
        self._on_ready: Optional[Callable[[], None]] = None

    def connect(self, on_ready: Callable[[], None]) -> None:
        """Open TCP + TLS; ``on_ready`` fires when requests can go."""
        self._on_ready = on_ready
        self.tcp.connect(SERVER_ADDR, HTTPS_PORT, self._on_tcp)

    def _on_tcp(self, conn: TcpConnection) -> None:
        self.tls = TlsSession(conn, role="client")
        self.tls.on_established = self._on_tls
        self.tls.on_application_record = self._on_record
        self.tls.start_handshake()

    def _on_tls(self, _tls: TlsSession) -> None:
        if self._on_ready is not None:
            callback, self._on_ready = self._on_ready, None
            callback()

    @property
    def connected(self) -> bool:
        return self.tls is not None and self.tls.established

    def request(self, path: str,
                on_complete: Optional[Callable[[Http1Exchange], None]] = None,
                ) -> Http1Exchange:
        """Send a GET; the response is matched by pipeline order."""
        if not self.connected:
            raise RuntimeError("request() before TLS established")
        exchange = Http1Exchange(path=path, requested_at=self.sim.now,
                                 on_complete=on_complete)
        self.exchanges.append(exchange)
        self.tls.send_application(H1Request(path=path),
                                  REQUEST_BYTES_BASE + len(path))
        return exchange

    def _current_exchange(self) -> Optional[Http1Exchange]:
        while self._response_cursor < len(self.exchanges):
            exchange = self.exchanges[self._response_cursor]
            if not exchange.complete:
                return exchange
            self._response_cursor += 1
        return None

    def _on_record(self, record: TlsRecord, dup: bool) -> None:
        if dup:
            return
        payload = record.payload
        exchange = self._current_exchange()
        if exchange is None:
            return
        if isinstance(payload, tuple) and payload and payload[0] == "h1-headers":
            exchange.first_byte_at = self.sim.now
            return
        if isinstance(payload, H1BodyChunk):
            exchange.bytes_received += payload.length
            if payload.is_last:
                exchange.completed_at = self.sim.now
                self._response_cursor += 1
                if exchange.on_complete is not None:
                    exchange.on_complete(exchange)

    def pending(self) -> List[Http1Exchange]:
        """Exchanges still awaiting their response."""
        return [e for e in self.exchanges if not e.complete]
