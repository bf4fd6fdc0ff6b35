"""HTTP/3-lite over the QUIC substrate.

Just enough of HTTP/3 to re-ask the paper's question on a QUIC wire:
request streams, a multi-worker server with round-robin DATA
scheduling (the multiplexing behaviour under test), and a client that
can reset streams.  Ground truth uses the same
:class:`repro.http2.server.TxEntry` records as the HTTP/2 server, with
a connection-level byte counter standing in for TCP stream offsets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.http2.server import TxEntry
from repro.quic.connection import (MAX_PAYLOAD, QuicConfig, QuicConnection,
                                   QuicEndpoint)
from repro.quic.frames import StreamFrame
from repro.simnet.topology import SERVER_ADDR
from repro.tcp.connection import CACHED_SSTHRESH_BYTES

MAX_FRAME_PAYLOAD = 1150
PROCESSING_DELAY_MEAN_S = 0.0008
RESPONSE_HEADER_BYTES = 56
#: Accepted-connection cap: further accepts are refused (slow-DoS
#: guard; generous enough that legitimate workloads never hit it).
MAX_CONNECTIONS = 256


@dataclass(frozen=True)
class H3Request:
    """A QPACK-encoded GET (size-faithful marker)."""

    path: str


@dataclass(frozen=True)
class H3Headers:
    """Response headers marker."""

    path: str


@dataclass(frozen=True)
class H3Data:
    """Response body chunk marker."""

    path: str
    offset: int


class H3Server:
    """Accepts QUIC connections and serves a site, round-robin."""

    def __init__(self, sim, host, site):
        self.sim = sim
        self.host = host
        self.site = site
        self.endpoint = QuicEndpoint(sim, host, QuicConfig(
            initial_ssthresh_bytes=CACHED_SSTHRESH_BYTES))
        self.endpoint.listen(self._on_accept)
        self.connections: List[QuicConnection] = []
        self.tx_log: List[TxEntry] = []
        self._wire_offset = 0
        self._queues: Dict[int, Deque] = {}
        self._rng = sim.rng("h3-server")

    def _on_accept(self, conn: QuicConnection) -> None:
        if len(self.connections) >= MAX_CONNECTIONS:
            return  # connection flood: refuse service, keep the rest alive
        self.connections.append(conn)
        conn.on_stream_frame = lambda frame, c=conn: self._on_frame(c, frame)
        conn.on_reset_stream = lambda sid: self._on_reset(sid)
        conn.on_send_space = lambda c=conn: self._pump(c)

    def _on_frame(self, conn: QuicConnection, frame: StreamFrame) -> None:
        if isinstance(frame.payload, H3Request):
            delay = self._rng.expovariate(
                1.0 / PROCESSING_DELAY_MEAN_S)
            self.sim.schedule(delay, self._serve, conn, frame.stream_id,
                              frame.payload.path)

    def _on_reset(self, stream_id: int) -> None:
        self._queues.pop(stream_id, None)

    def _serve(self, conn: QuicConnection, stream_id: int, path: str) -> None:
        obj = self.site.lookup(path)
        queue: Deque = deque()
        queue.append(("headers", RESPONSE_HEADER_BYTES, False,
                      H3Headers(path=path)))
        if obj is not None:
            remaining = obj.size
            offset = 0
            while remaining > 0:
                length = min(MAX_FRAME_PAYLOAD, remaining)
                remaining -= length
                queue.append(("data", length, remaining == 0,
                              H3Data(path=path, offset=offset)))
                offset += length
        else:
            queue[0] = ("headers", RESPONSE_HEADER_BYTES, True,
                        H3Headers(path=path))
        self._queues[stream_id] = queue
        self._pump(conn)

    def _pump(self, conn: QuicConnection) -> None:
        """Round-robin one frame per active stream into the transport."""
        budget = 6 * MAX_PAYLOAD
        while (self._queues
               and conn.queued_bytes < budget):
            progressed = False
            for stream_id in sorted(self._queues):
                queue = self._queues.get(stream_id)
                if not queue:
                    self._queues.pop(stream_id, None)
                    continue
                kind, length, fin, payload = queue.popleft()
                if not queue:
                    self._queues.pop(stream_id, None)
                conn.send_stream_frame(stream_id, length, fin, payload)
                path = payload.path
                self.tx_log.append(TxEntry(
                    time=self.sim.now, stream_id=stream_id,
                    object_path=path if kind == "data" else "",
                    serve_id=stream_id,
                    tcp_offset=self._wire_offset, length=length
                    if kind == "data" else 0,
                    is_data=kind == "data", end_stream=fin, duplicate=False))
                self._wire_offset += length
                progressed = True
                if conn.queued_bytes >= budget:
                    break
            if not progressed:
                break


class H3Client:
    """Request streams over one QUIC connection."""

    def __init__(self, sim, host):
        self.sim = sim
        self.endpoint = QuicEndpoint(sim, host, QuicConfig())
        self.conn: Optional[QuicConnection] = None
        self.streams: Dict[int, dict] = {}
        self._next_stream_id = 0
        self._on_ready: Optional[Callable[[], None]] = None
        self.request_header_bytes = 64

    def connect(self, on_ready: Callable[[], None]) -> None:
        self._on_ready = on_ready
        self.conn = self.endpoint.connect(SERVER_ADDR, self._ready)

    def _ready(self, conn: QuicConnection) -> None:
        conn.on_stream_frame = self._on_frame
        if self._on_ready is not None:
            callback, self._on_ready = self._on_ready, None
            callback()

    def request(self, path: str,
                on_complete: Optional[Callable[[dict], None]] = None) -> dict:
        stream_id = self._next_stream_id
        self._next_stream_id += 4
        state = {"stream_id": stream_id, "path": path, "bytes": 0,
                 "complete": False, "reset": False,
                 "requested_at": self.sim.now, "on_complete": on_complete}
        self.streams[stream_id] = state
        self.conn.send_stream_frame(
            stream_id, self.request_header_bytes + len(path), True,
            H3Request(path=path))
        return state

    def reset_stream(self, state: dict) -> None:
        state["reset"] = True
        self.conn.reset_stream(state["stream_id"])

    def _on_frame(self, frame: StreamFrame) -> None:
        state = self.streams.get(frame.stream_id)
        if state is None or state["reset"] or state["complete"]:
            return
        if isinstance(frame.payload, H3Data):
            state["bytes"] += frame.length
        if frame.fin:
            state["complete"] = True
            if state["on_complete"] is not None:
                state["on_complete"](state)

    def pending(self) -> List[dict]:
        return [s for s in self.streams.values()
                if not s["complete"] and not s["reset"]]
