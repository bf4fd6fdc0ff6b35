"""HTTP/1.1 server: strictly sequential responses per connection.

Requests are parsed from TLS application records; responses are written
back-to-back in request order (keep-alive with pipelining).  There is
exactly one logical "worker" per connection, so objects never
interleave -- the Head-of-Line-blocking behaviour the paper describes as
"widely exploited by adversaries for traffic analysis".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List

from repro.tcp.connection import (CACHED_SSTHRESH_BYTES, TcpConfig,
                                  TcpConnection, TcpStack)
from repro.tls.record import TlsRecord
from repro.tls.session import HTTPS_PORT, TlsSession

#: Response body bytes per TLS record.
MAX_RECORD_PAYLOAD = 1379
#: Mean exponential request-handling delay.
PROCESSING_DELAY_MEAN_S = 0.0008
#: Typical response-header bytes (status line + headers).
RESPONSE_HEADER_BYTES = 230
#: Pipelined-request cap per connection: requests beyond it drop.
MAX_PIPELINE_DEPTH = 512
#: Accepted-connection cap: further accepts are refused (slow-DoS
#: guard; generous enough that legitimate workloads never hit it).
MAX_CONNECTIONS = 256


@dataclass(frozen=True)
class H1Request:
    """Parsed request marker carried in a record payload."""

    path: str


@dataclass(frozen=True)
class H1BodyChunk:
    """Response body chunk marker (ground-truth attribution included)."""

    path: str
    length: int
    is_last: bool


@dataclass(frozen=True)
class H1TxEntry:
    """Ground truth: one response record entering the TCP stream."""

    time: float
    object_path: str
    tcp_offset: int
    length: int
    is_body: bool
    is_last: bool


class _H1Connection:
    """Server side of one keep-alive connection."""

    def __init__(self, server: "Http1Server", tls: TlsSession):
        self.server = server
        self.tls = tls
        self.sim = server.sim
        self._queue: Deque[str] = deque()
        self._busy = False
        tls.on_application_record = self._on_record

    def _on_record(self, record: TlsRecord, dup: bool) -> None:
        if dup:
            return
        payload = record.payload
        if isinstance(payload, H1Request):
            if len(self._queue) >= MAX_PIPELINE_DEPTH:
                return  # pipeline flooded: shed the request
            self._queue.append(payload.path)
            self._maybe_serve()

    def _maybe_serve(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        path = self._queue.popleft()
        delay = self.sim.rng("http1-server").expovariate(
            1.0 / PROCESSING_DELAY_MEAN_S)
        self.sim.schedule(delay, self._serve, path)

    def _serve(self, path: str) -> None:
        obj = self.server.site.lookup(path)
        tcp = self.tls.conn

        header_len = RESPONSE_HEADER_BYTES
        self._log(path, tcp, header_len, is_body=False, is_last=obj is None)
        self.tls.send_application(("h1-headers", path), header_len)

        if obj is not None:
            remaining = obj.size
            while remaining > 0:
                length = min(MAX_RECORD_PAYLOAD, remaining)
                remaining -= length
                chunk = H1BodyChunk(path=path, length=length,
                                    is_last=remaining == 0)
                self._log(path, tcp, length, is_body=True,
                          is_last=chunk.is_last)
                self.tls.send_application(chunk, length)

        # Sequential service: next request begins only after this
        # response has been fully handed to TCP.
        self._busy = False
        self._maybe_serve()

    def _log(self, path: str, tcp: TcpConnection, length: int,
             is_body: bool, is_last: bool) -> None:
        self.server.tx_log.append(H1TxEntry(
            time=self.sim.now, object_path=path,
            tcp_offset=tcp.send_buffer.total_written,
            length=length, is_body=is_body, is_last=is_last))


class Http1Server:
    """Accepts connections and serves a site sequentially."""

    def __init__(self, sim, host, site):
        self.sim = sim
        self.host = host
        self.site = site
        self.tx_log: List[H1TxEntry] = []
        self.connections: List[_H1Connection] = []
        self.tcp = TcpStack(sim, host, TcpConfig(
            initial_ssthresh_bytes=CACHED_SSTHRESH_BYTES))
        self.tcp.listen(HTTPS_PORT, self._on_accept)

    def _on_accept(self, conn: TcpConnection) -> None:
        if len(self.connections) >= MAX_CONNECTIONS:
            return  # connection flood: refuse service, keep the rest alive
        tls = TlsSession(conn, role="server")
        self.connections.append(_H1Connection(self, tls))
