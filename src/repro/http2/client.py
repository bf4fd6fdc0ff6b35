"""HTTP/2 client endpoint.

Issues GET requests on odd stream ids, tracks per-stream progress (the
browser's stall detector reads ``last_progress``), sends ``RST_STREAM``
to abandon stalled streams, and re-requests objects on fresh streams --
the behaviours the paper's client exhibits under the adversary's drop
burst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.http2 import frames as fr
from repro.http2.connection import Http2Connection
from repro.http2.errors import ErrorCode
from repro.http2.hpack import HpackEncoder
from repro.http2.settings import Http2Settings
from repro.tcp.connection import TcpConfig, TcpConnection, TcpStack
from repro.tls.session import TlsSession


@dataclass
class Http2ClientConfig:
    """Client tunables."""

    authority: str = "www.example.com"
    user_agent: str = "Mozilla/5.0 (X11; Linux x86_64; rv:74.0) Firefox/74.0"
    settings: Http2Settings = field(default_factory=Http2Settings)


@dataclass
class ClientStream:
    """Client-side view of one request/response exchange."""

    stream_id: int
    path: str
    weight: int = 16
    requested_at: float = 0.0
    first_byte_at: Optional[float] = None
    completed_at: Optional[float] = None
    last_progress: float = 0.0
    bytes_received: int = 0
    content_length: Optional[int] = None
    status: Optional[str] = None
    reset: bool = False
    #: True for server-pushed streams (even ids).
    pushed: bool = False
    on_complete: Optional[Callable[["ClientStream"], None]] = None
    on_first_byte: Optional[Callable[["ClientStream"], None]] = None
    on_progress: Optional[Callable[["ClientStream"], None]] = None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    @property
    def pending(self) -> bool:
        return not self.complete and not self.reset


class ClientConnection(Http2Connection):
    """Client side of the HTTP/2 connection."""

    def __init__(self, client: "Http2Client", tls: TlsSession):
        super().__init__(client.sim, tls, client.taps,
                         settings=client.config.settings)
        self.client = client

    def handle_headers(self, frame: fr.HeadersFrame, dup: bool) -> None:
        if dup:
            return
        stream = self.client.streams.get(frame.stream_id)
        if stream is None or stream.reset:
            return
        stream.status = frame.headers.get(":status")
        length = frame.headers.get("content-length")
        if length is not None:
            stream.content_length = int(length)
        stream.last_progress = self.sim.now
        if frame.end_stream:
            self.client._complete(stream)

    def handle_data(self, frame: fr.DataFrame, dup: bool) -> None:
        if dup:
            return
        stream = self.client.streams.get(frame.stream_id)
        if stream is None or stream.reset or stream.complete:
            return
        if stream.first_byte_at is None:
            stream.first_byte_at = self.sim.now
            if stream.on_first_byte is not None:
                stream.on_first_byte(stream)
        stream.bytes_received += frame.length
        stream.last_progress = self.sim.now
        if stream.on_progress is not None:
            stream.on_progress(stream)
        if frame.end_stream and not stream.complete:
            self.client._complete(stream)

    def handle_rst_stream(self, frame: fr.RstStreamFrame) -> None:
        stream = self.client.streams.get(frame.stream_id)
        if stream is None:
            return
        stream.reset = True
        if frame.error_code == int(ErrorCode.REFUSED_STREAM):
            # The server refused the stream before doing any work
            # (concurrency cap or graceful shutdown): safe to retry.
            self.client._retry_refused(stream)
        else:
            # The server killed a stream it had started (worker crash,
            # internal error): retry on a fresh stream with capped
            # exponential backoff.
            self.client._retry_errored(stream)

    def handle_push_promise(self, frame: fr.PushPromiseFrame) -> None:
        path = frame.headers.get(":path", "")
        stream = ClientStream(stream_id=frame.promised_stream_id, path=path,
                              requested_at=self.sim.now,
                              last_progress=self.sim.now)
        stream.pushed = True
        self.client.streams[frame.promised_stream_id] = stream
        if self.client.on_push is not None:
            self.client.on_push(stream)

    def handle_goaway(self, frame: fr.GoAwayFrame) -> None:
        self.client.goaway = True


class Http2Client:
    """Browser-facing HTTP/2 client."""

    def __init__(self, sim, host, server_addr: str, port: int = 443,
                 config: Optional[Http2ClientConfig] = None,
                 tcp_config: Optional[TcpConfig] = None):
        self.sim = sim
        self.host = host
        self.server_addr = server_addr
        self.port = port
        self.config = config or Http2ClientConfig()
        self.hpack = HpackEncoder()
        #: Frame taps shared by every (re)dialled connection (see
        #: :attr:`repro.http2.connection.Http2Connection.taps`).
        self.taps: List[Callable] = []
        self.streams: Dict[int, ClientStream] = {}
        self.completed: List[ClientStream] = []
        self.goaway = False
        self.refused_retries = 0
        self.stream_retries = 0
        self.reconnects = 0
        self.connection: Optional[ClientConnection] = None
        #: Callback for server-pushed streams (defense evaluations).
        self.on_push: Optional[Callable[[ClientStream], None]] = None
        self._next_stream_id = 1
        self._queued_requests: List[ClientStream] = []
        self._on_ready: Optional[Callable[[], None]] = None
        self._tcp_config = tcp_config or TcpConfig()
        self.tcp = TcpStack(sim, host, self._tcp_config)
        self._tcp_conn: Optional[TcpConnection] = None
        self._first_request_sent = False

    # -- connection lifecycle -----------------------------------------------

    def connect(self, on_ready: Callable[[], None]) -> None:
        """Open TCP + TLS + HTTP/2; ``on_ready`` fires when requests can go."""
        self._on_ready = on_ready
        self._tcp_conn = self.tcp.connect(self.server_addr, self.port,
                                          self._on_tcp_established)

    def _on_tcp_established(self, conn: TcpConnection) -> None:
        tls = TlsSession(conn, role="client")
        self.connection = ClientConnection(self, tls)
        self.connection.on_ready = self._on_h2_ready
        tls.start_handshake()

    def _on_h2_ready(self) -> None:
        # Requests that arrived while the connection was (re)dialling go
        # out first, in arrival order.
        queued, self._queued_requests = self._queued_requests, []
        for stream in queued:
            if not stream.reset:
                stream.requested_at = self.sim.now
                stream.last_progress = self.sim.now
                self._send_request(stream)
        if self._on_ready is not None:
            callback, self._on_ready = self._on_ready, None
            callback()

    @property
    def connected(self) -> bool:
        return self.connection is not None and self.connection.ready

    @property
    def broken(self) -> bool:
        """True when the transport died or the server went away."""
        if self.goaway:
            return True
        return self._tcp_conn is not None and self._tcp_conn.state == "closed"

    def reconnect(self, on_ready: Callable[[], None]) -> None:
        """Graceful degradation: abandon the dead connection and dial a
        fresh one (TCP + TLS + HTTP/2).

        Streams still pending on the old connection are marked reset so
        the browser's re-request accounting sees them as lost; stream
        ids keep counting upward across connections so every request of
        the session stays uniquely addressable (a fresh connection only
        requires ids to be odd and increasing).
        """
        self.reconnects += 1
        if self._tcp_conn is not None and self._tcp_conn.state != "closed":
            self._tcp_conn.abort()
        for stream in self.streams.values():
            if stream.pending:
                stream.reset = True
        self.goaway = False
        self.connection = None
        # A new connection renegotiates everything, including the
        # session cookie on its first request.
        self._first_request_sent = False
        self._on_ready = on_ready
        self._tcp_conn = self.tcp.connect(self.server_addr, self.port,
                                          self._on_tcp_established)

    # -- requests ----------------------------------------------------------------

    def request(self, path: str, weight: int = 16,
                on_complete: Optional[Callable[[ClientStream], None]] = None,
                on_first_byte: Optional[Callable[[ClientStream], None]] = None,
                ) -> ClientStream:
        """Send a GET for ``path`` on a fresh stream.

        While a (re)dial is in flight the request is queued and goes out
        as soon as the new connection is ready -- page-load phases keep
        firing during recovery and must not crash into a half-open
        connection.
        """
        if self.connection is None and self._tcp_conn is None:
            raise RuntimeError("request() before connect()")
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        stream = ClientStream(stream_id=stream_id, path=path, weight=weight,
                              requested_at=self.sim.now,
                              last_progress=self.sim.now,
                              on_complete=on_complete,
                              on_first_byte=on_first_byte)
        self.streams[stream_id] = stream
        if self._sendable():
            self._send_request(stream)
        else:
            self._queued_requests.append(stream)
        return stream

    def _sendable(self) -> bool:
        """Frames can go out right now: the connection finished its
        handshakes and its transport has not been torn down (the server
        may have aborted since the browser last checked it was alive)."""
        return (self.connection is not None and self.connection.ready
                and self.connection.tls.conn.state != "closed")

    def _send_request(self, stream: ClientStream) -> None:
        headers = self._request_headers(stream.path)
        block = self.hpack.encode_size(headers)
        frame = fr.HeadersFrame(stream_id=stream.stream_id,
                                headers=dict(headers),
                                header_block_len=block,
                                end_stream=True,
                                priority_weight=stream.weight)
        self.connection.send_frame(frame)

    def request_batch(self, paths: List[str], weight: int = 16,
                      on_complete: Optional[Callable[[ClientStream], None]] = None,
                      ) -> List[ClientStream]:
        """Send GETs for all ``paths`` in a single TLS record.

        HTTP/2 permits many HEADERS frames per record; a batch rides one
        TCP segment, so an on-path device cannot space the requests
        apart -- the client-side countermeasure to the serialization
        attack's jitter phase.
        """
        if self.connection is None:
            raise RuntimeError("request_batch() before connect()")
        frames = []
        streams = []
        for path in paths:
            stream_id = self._next_stream_id
            self._next_stream_id += 2
            stream = ClientStream(stream_id=stream_id, path=path,
                                  weight=weight,
                                  requested_at=self.sim.now,
                                  last_progress=self.sim.now,
                                  on_complete=on_complete)
            self.streams[stream_id] = stream
            streams.append(stream)
            headers = self._request_headers(path)
            block = self.hpack.encode_size(headers)
            frames.append(fr.HeadersFrame(stream_id=stream_id,
                                          headers=dict(headers),
                                          header_block_len=block,
                                          end_stream=True,
                                          priority_weight=weight))
        self.connection._send_record(frames)
        return streams

    def _request_headers(self, path: str) -> List:
        cfg = self.config
        headers = [
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", cfg.authority),
            (":path", path),
            ("user-agent", cfg.user_agent),
            ("accept", "*/*"),
            ("accept-encoding", "gzip, deflate"),
        ]
        if not self._first_request_sent:
            self._first_request_sent = True
            headers.append(("cookie", "session=" + "x" * 48))
        return headers

    def reset_stream(self, stream: ClientStream,
                     code: ErrorCode = ErrorCode.CANCEL) -> None:
        """Abandon a stream with RST_STREAM (the Section IV-D behaviour)."""
        if stream.complete or stream.reset:
            return
        stream.reset = True
        if not self._sendable():
            # Never went out on the wire (or the wire is gone); there is
            # nothing to tell the server.
            return
        self.connection.send_frame(fr.RstStreamFrame(stream_id=stream.stream_id,
                                                     error_code=int(code)))

    def pending_streams(self) -> List[ClientStream]:
        """Streams still awaiting completion."""
        return [s for s in self.streams.values() if s.pending]

    #: Backoff before retrying a REFUSED_STREAM request.
    REFUSED_RETRY_DELAY_S = 0.05
    #: Retries allowed per refused request.
    MAX_REFUSED_RETRIES = 3
    #: First backoff before retrying a stream the server errored out.
    ERROR_RETRY_BASE_S = 0.1
    #: Exponential-backoff ceiling for errored-stream retries.
    ERROR_RETRY_CAP_S = 2.0
    #: Retries allowed per errored stream.
    MAX_ERROR_RETRIES = 3

    def _retry_refused(self, stream: ClientStream) -> None:
        retries = getattr(stream, "_refused_retries", 0)
        if retries >= self.MAX_REFUSED_RETRIES or self.goaway:
            return
        self.refused_retries += 1

        def retry() -> None:
            if self.goaway:
                return
            replacement = self.request(stream.path, weight=stream.weight,
                                       on_complete=stream.on_complete,
                                       on_first_byte=stream.on_first_byte)
            replacement.on_progress = stream.on_progress
            replacement._refused_retries = retries + 1

        self.sim.schedule(self.REFUSED_RETRY_DELAY_S, retry)

    def _retry_errored(self, stream: ClientStream) -> None:
        """Re-request after a server-side stream error, with capped
        exponential backoff (base * 2^n, clamped)."""
        retries = getattr(stream, "_error_retries", 0)
        if retries >= self.MAX_ERROR_RETRIES or self.broken:
            return
        self.stream_retries += 1
        delay = min(self.ERROR_RETRY_CAP_S,
                    self.ERROR_RETRY_BASE_S * (2 ** retries))

        def retry() -> None:
            if self.broken or self.connection is None:
                return
            replacement = self.request(stream.path, weight=stream.weight,
                                       on_complete=stream.on_complete,
                                       on_first_byte=stream.on_first_byte)
            replacement.on_progress = stream.on_progress
            replacement._error_retries = retries + 1

        self.sim.schedule(delay, retry)

    def _complete(self, stream: ClientStream) -> None:
        stream.completed_at = self.sim.now
        self.completed.append(stream)
        if stream.on_complete is not None:
            stream.on_complete(stream)
