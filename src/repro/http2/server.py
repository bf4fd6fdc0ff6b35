"""Multi-worker HTTP/2 server.

Models the server of the paper's Figure 3: every GET spawns a worker
("thread") after a small processing delay; workers enqueue response
frames on per-stream queues; a :class:`~repro.http2.scheduler.MuxScheduler`
drains those queues round-robin into the shared TCP stream, interleaving
the objects.  Three behaviours matter to the attack and are modelled
faithfully:

* **Duplicate GET service** (Fig. 4): when the TCP layer re-delivers a
  retransmitted GET (duplicate-delivery mode) the server spawns another
  worker and serves another copy of the object, intensifying
  multiplexing.  Disable with ``serve_duplicate_requests=False``.
* **RST_STREAM flush** (Section IV-D): a reset closes the stream and
  flushes its queued frames immediately.
* **Dynamic objects**: the survey result HTML is generated in chunks
  over time; once generated, the result is cached so a re-request (after
  the adversary forces a reset) is served fast and alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.http2 import frames as fr
from repro.http2.connection import Http2Connection
from repro.http2.errors import ErrorCode
from repro.http2.hpack import HpackEncoder
from repro.http2.priority import PriorityTree
from repro.http2.scheduler import MuxScheduler, make_scheduler
from repro.http2.settings import Http2Settings
from repro.http2.stream import StreamState
from repro.simnet.timers import TimerWheel
from repro.tcp.connection import TcpConfig, TcpConnection, TcpStack
from repro.tls.session import TlsSession


@dataclass
class Http2ServerConfig:
    """Server tunables."""

    port: int = 443
    #: DATA payload bytes per frame; one frame rides one TLS record and
    #: (with the default MSS) one packet -- the interleave granularity.
    max_frame_payload: int = 1370
    #: Mean of the exponential per-request worker spawn delay (seconds).
    processing_delay_mean_s: float = 0.0008
    scheduler: str = "round-robin"
    #: Reproduce the paper's observed re-serving of retransmitted GETs.
    serve_duplicate_requests: bool = True
    #: Keep the TCP unsent backlog at most this many bytes ahead of the
    #: scheduler, so interleaving decisions happen at wire pace.
    backlog_watermark_bytes: int = 4 * 1400
    settings: Http2Settings = field(default_factory=Http2Settings)
    #: Optional defense hook: ``pad_object(size, rng) -> padded_size``
    #: applied to every response body (padding / morphing defenses).
    pad_object: Optional[Callable] = None
    #: Optional defense hook: path -> list of paths to server-push when
    #: that path is served (requires the client to enable push).
    push_map: Optional[Dict[str, List[str]]] = None
    #: Accepted-connection cap: further accepts are refused (slow-DoS
    #: guard; generous enough that legitimate workloads never hit it).
    max_connections: int = 256

    # -- resource-robustness layer (docs/DOS.md) -------------------------
    #
    # Every knob defaults to *off* (None / False): an unhardened server
    # schedules no deadline events and is byte-identical to the
    # pre-hardening model.  Deadlines ride a
    # :class:`repro.simnet.timers.TimerWheel` on the simulator clock.

    #: Accept-to-TLS-established deadline (kills silent TCP dialers).
    handshake_timeout_s: Optional[float] = None
    #: TLS-established-to-client-SETTINGS deadline.
    preamble_timeout_s: Optional[float] = None
    #: HEADERS(END_STREAM=0)-to-first-body-byte deadline per stream.
    header_timeout_s: Optional[float] = None
    #: Maximum gap between request-body DATA frames per stream.
    body_progress_timeout_s: Optional[float] = None
    #: Per-connection PING budget per second of simulated time.
    max_pings_per_s: Optional[float] = None
    #: Per-connection non-ack SETTINGS budget per second.
    max_settings_per_s: Optional[float] = None
    #: Per-connection RST_STREAM budget per second (rapid-reset guard).
    max_resets_per_s: Optional[float] = None
    #: Per-connection open-stream cap below ``max_concurrent_streams``.
    max_open_streams: Optional[int] = None
    #: Per-connection cap on response frames queued for the mux (the
    #: memory proxy); exceeding it sheds the connection.
    max_queued_frames: Optional[int] = None
    #: At the ``max_connections`` accept cap, abort the connection with
    #: the oldest activity instead of refusing the newcomer.
    reap_slowest_at_capacity: bool = False

    #: (name, must-be-positive-float) knobs validated in __post_init__.
    _TIMEOUT_KNOBS = ("handshake_timeout_s", "preamble_timeout_s",
                      "header_timeout_s", "body_progress_timeout_s",
                      "max_pings_per_s", "max_settings_per_s",
                      "max_resets_per_s")
    _CAP_KNOBS = ("max_open_streams", "max_queued_frames")

    def __post_init__(self) -> None:
        for name in ("port", "max_frame_payload", "backlog_watermark_bytes",
                     "max_connections"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"Http2ServerConfig.{name} must be > 0, "
                                 f"got {value}")
        if self.processing_delay_mean_s <= 0:
            raise ValueError("Http2ServerConfig.processing_delay_mean_s "
                             f"must be > 0, got {self.processing_delay_mean_s}")
        for name in self._TIMEOUT_KNOBS + self._CAP_KNOBS:
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"Http2ServerConfig.{name} must be > 0 "
                                 f"when set, got {value}")

    def hardening_active(self) -> bool:
        """True when any per-connection hardening knob is set."""
        return any(getattr(self, name) is not None
                   for name in self._TIMEOUT_KNOBS + self._CAP_KNOBS)


class _ConnectionHardening:
    """Per-connection resource-robustness state (docs/DOS.md).

    Created only when :meth:`Http2ServerConfig.hardening_active` -- an
    unhardened connection carries ``None`` and pays one ``is not None``
    test per frame.  Deadlines live on a
    :class:`~repro.simnet.timers.TimerWheel`; rate budgets are plain
    per-second windows on the simulator clock, so nothing here
    schedules an event unless a deadline knob is set.
    """

    def __init__(self, conn: "ServerConnection"):
        self.conn = conn
        self.config = conn.config
        self.timers = TimerWheel(conn.sim)
        #: ``key -> [window_start_s, count]`` rate-budget windows.
        self._windows: Dict[str, List] = {}
        #: Streams whose request body is still expected (END_STREAM unseen).
        self._pending_bodies: set = set()
        #: Streams refused by the per-connection ``max_open_streams`` cap.
        self.capped_streams = 0
        #: Streams reset by a header/body-progress deadline.
        self.timed_out_streams = 0
        if self.config.handshake_timeout_s is not None:
            self.timers.arm("handshake", self.config.handshake_timeout_s,
                            self._connection_deadline, "handshake")

    # -- connection lifecycle ------------------------------------------------

    def on_tls_established(self) -> None:
        self.timers.cancel("handshake")
        if self.config.preamble_timeout_s is not None:
            self.timers.arm("preamble", self.config.preamble_timeout_s,
                            self._connection_deadline, "preamble")

    def disarm(self) -> None:
        """Connection teardown: every deadline dies with the resource."""
        self.timers.cancel_all()
        self._pending_bodies.clear()

    # -- frame admission (non-duplicate receive path) ------------------------

    def admit(self, frame: fr.Frame) -> bool:
        """Account ``frame`` against budgets; False drops it (the
        connection has been shed)."""
        if isinstance(frame, fr.SettingsFrame):
            if frame.ack:
                return True
            self.timers.cancel("preamble")
            return self._within_budget("settings",
                                       self.config.max_settings_per_s)
        if isinstance(frame, fr.PingFrame):
            if frame.ack:
                return True
            return self._within_budget("ping", self.config.max_pings_per_s)
        if isinstance(frame, fr.RstStreamFrame):
            self._stream_done(frame.stream_id)
            return self._within_budget("reset", self.config.max_resets_per_s)
        if isinstance(frame, fr.DataFrame):
            self._on_body_data(frame)
        return True

    def admit_stream(self, frame: fr.HeadersFrame) -> bool:
        """Per-connection open-stream cap, checked before stream setup."""
        cap = self.config.max_open_streams
        if cap is not None and self.conn._open_stream_count() >= cap:
            self.capped_streams += 1
            self.conn.send_frame(fr.RstStreamFrame(
                stream_id=frame.stream_id,
                error_code=int(ErrorCode.REFUSED_STREAM)))
            return False
        return True

    def on_request_opened(self, frame: fr.HeadersFrame) -> None:
        if frame.end_stream:
            return
        if len(self._pending_bodies) < 4096:  # bound tracked state
            self._pending_bodies.add(frame.stream_id)
        if self.config.header_timeout_s is not None:
            self.timers.arm(f"hdr:{frame.stream_id}",
                            self.config.header_timeout_s,
                            self._stream_deadline, frame.stream_id)

    def _on_body_data(self, frame: fr.DataFrame) -> None:
        stream_id = frame.stream_id
        if stream_id not in self._pending_bodies:
            return
        self.timers.cancel(f"hdr:{stream_id}")
        if frame.end_stream:
            self._stream_done(stream_id)
        elif self.config.body_progress_timeout_s is not None:
            self.timers.arm(f"body:{stream_id}",
                            self.config.body_progress_timeout_s,
                            self._stream_deadline, stream_id)

    def _stream_done(self, stream_id: int) -> None:
        self._pending_bodies.discard(stream_id)
        self.timers.cancel(f"hdr:{stream_id}")
        self.timers.cancel(f"body:{stream_id}")

    # -- budgets, queue cap, deadlines ---------------------------------------

    def _within_budget(self, key: str, per_s: Optional[float]) -> bool:
        if per_s is None:
            return True
        now = self.conn.sim.now
        window = self._windows.get(key)
        if window is None or now - window[0] >= 1.0:
            self._windows[key] = [now, 1]
            return True
        window[1] += 1
        if window[1] > per_s:
            self._shed(f"{key} rate {window[1]}/s exceeds budget "
                       f"{per_s:g}/s")
            return False
        return True

    def on_frames_queued(self) -> None:
        cap = self.config.max_queued_frames
        if cap is None:
            return
        queued = sum(len(queue) for queue in self.conn.stream_queues.values())
        if queued > cap:
            self._shed(f"{queued} response frames queued exceeds cap {cap}")

    def _shed(self, reason: str) -> None:
        """Graceful shedding: ENHANCE_YOUR_CALM GOAWAY, then teardown."""
        if self.conn._aborted:
            return
        self.conn.server.shed_connections += 1
        self.conn.shed_reason = reason
        self.conn.abort(ErrorCode.ENHANCE_YOUR_CALM)

    def _connection_deadline(self, which: str) -> None:
        if self.conn._aborted:
            return
        self.conn.server.timed_out_connections += 1
        self.conn.shed_reason = f"{which} deadline expired"
        self.conn.abort(ErrorCode.ENHANCE_YOUR_CALM)

    def _stream_deadline(self, stream_id: int) -> None:
        if self.conn._aborted:
            return
        self.timed_out_streams += 1
        self._stream_done(stream_id)
        self.conn._reset_stream(stream_id, ErrorCode.CANCEL)


@dataclass(frozen=True, slots=True)
class TxEntry:
    """Ground-truth record of one response frame entering the TCP stream."""

    time: float
    stream_id: int
    object_path: str
    serve_id: int
    tcp_offset: int
    length: int
    is_data: bool
    end_stream: bool
    duplicate: bool


class ServerConnection(Http2Connection):
    """Server side of one client connection."""

    def __init__(self, server: "Http2Server", tls: TlsSession):
        super().__init__(server.sim, tls, server.taps,
                         settings=server.config.settings)
        self.server = server
        self.site = server.site
        self.config = server.config
        self.streams: Dict[int, StreamState] = {}
        #: Per-stream response queues of ``(frame, dup_serve)`` pairs --
        #: the dup flag rides beside the frame (frames are slotted; no
        #: ad-hoc attributes).
        self.stream_queues: Dict[int, Deque[Tuple[fr.Frame, bool]]] = {}
        self.priority_tree = PriorityTree()
        self.scheduler: MuxScheduler = make_scheduler(self.config.scheduler,
                                                      self.priority_tree)
        self.tx_log: List[TxEntry] = []
        self.requests_received = 0
        self.duplicate_requests_served = 0
        self._serve_ids = 0
        self._next_push_stream_id = 2
        self._shutting_down = False
        self._aborted = False
        self.refused_streams = 0
        self._dynamic_cache: Dict[str, bool] = {}
        self._rng = server.sim.rng("http2-server")
        # Passive robustness telemetry: counter/attribute updates only,
        # never events, so an unhardened server stays byte-identical.
        self.pings_received = 0
        self.settings_received = 0
        self.resets_received = 0
        self.last_activity_s = server.sim.now
        #: Why the robustness layer shed/reaped this connection ("" if alive).
        self.shed_reason = ""
        self._hardening: Optional[_ConnectionHardening] = (
            _ConnectionHardening(self) if server.config.hardening_active()
            else None)
        tls.conn.on_send_space = self.pump

    # -- robustness layer ----------------------------------------------------

    def _on_tls_established(self, tls: TlsSession) -> None:
        hardening = getattr(self, "_hardening", None)
        if hardening is not None:
            hardening.on_tls_established()
        super()._on_tls_established(tls)

    def _dispatch(self, frame: fr.Frame, dup: bool) -> None:
        if not dup:
            self.last_activity_s = self.sim.now
            if isinstance(frame, fr.PingFrame):
                if not frame.ack:
                    self.pings_received += 1
            elif isinstance(frame, fr.SettingsFrame):
                if not frame.ack:
                    self.settings_received += 1
            elif isinstance(frame, fr.RstStreamFrame):
                self.resets_received += 1
            if self._hardening is not None \
                    and not self._hardening.admit(frame):
                return
        super()._dispatch(frame, dup)

    def _reset_stream(self, stream_id: int, error_code: ErrorCode) -> None:
        """Server-initiated stream teardown (deadline expiry): RST the
        peer, retire local state, flush queued frames."""
        stream = self.streams.get(stream_id)
        if stream is None or stream.was_reset:
            return
        if not self._aborted and self.tls.conn.state != "closed":
            self.send_frame(fr.RstStreamFrame(stream_id=stream_id,
                                              error_code=int(error_code)))
        stream.on_recv_rst(int(error_code))
        if self.stream_queues.pop(stream_id, None) is not None:
            self.scheduler.on_stream_done(stream_id)

    # -- request ingress -----------------------------------------------------

    def handle_headers(self, frame: fr.HeadersFrame, dup: bool) -> None:
        path = frame.headers.get(":path")
        if path is None:
            return
        if dup and not self.config.serve_duplicate_requests:
            return
        if not dup:
            if self._shutting_down:
                # Streams above the GOAWAY watermark were never started.
                self.send_frame(fr.RstStreamFrame(
                    stream_id=frame.stream_id,
                    error_code=int(ErrorCode.REFUSED_STREAM)))
                return
            if self._hardening is not None \
                    and not self._hardening.admit_stream(frame):
                return
            if self._open_stream_count() >= self.settings.max_concurrent_streams:
                self.refused_streams += 1
                self.send_frame(fr.RstStreamFrame(
                    stream_id=frame.stream_id,
                    error_code=int(ErrorCode.REFUSED_STREAM)))
                return
            self.requests_received += 1
            stream = self.streams.setdefault(frame.stream_id,
                                             StreamState(frame.stream_id))
            stream.on_recv_headers(end_stream=frame.end_stream)
            weight = frame.priority_weight or 16
            self.priority_tree.add_stream(frame.stream_id, weight=weight)
            if self._hardening is not None:
                self._hardening.on_request_opened(frame)
        else:
            stream = self.streams.get(frame.stream_id)
            if stream is None or stream.was_reset:
                return
            self.duplicate_requests_served += 1

        delay = self._rng.expovariate(1.0 / self.config.processing_delay_mean_s)
        self.sim.schedule(delay, self._spawn_worker, frame.stream_id, path, dup)

    def handle_priority(self, frame: fr.PriorityFrame) -> None:
        self.priority_tree.add_stream(frame.stream_id, frame.depends_on,
                                      frame.weight, frame.exclusive)

    def handle_rst_stream(self, frame: fr.RstStreamFrame) -> None:
        stream = self.streams.get(frame.stream_id)
        if stream is not None:
            stream.on_recv_rst(frame.error_code)
        # Flush queued segments for the stream (the paper's observation
        # about Reset Stream reducing load immediately).
        queue = self.stream_queues.pop(frame.stream_id, None)
        if queue is not None:
            self.scheduler.on_stream_done(frame.stream_id)

    def handle_data(self, frame: fr.DataFrame, dup: bool) -> None:
        return None  # Request bodies are out of scope (GET-only workload).

    def handle_window_opened(self) -> None:
        self.pump()

    def _open_stream_count(self) -> int:
        return sum(1 for stream in self.streams.values()
                   if not stream.is_closed and stream.stream_id % 2 == 1)

    def shutdown(self) -> None:
        """Graceful close: announce GOAWAY, refuse new streams, finish
        the ones in flight (RFC 7540 section 6.8)."""
        if self._shutting_down:
            return
        self._shutting_down = True
        last = max((sid for sid in self.streams if sid % 2 == 1), default=0)
        self.send_frame(fr.GoAwayFrame(last_stream_id=last,
                                       error_code=int(ErrorCode.NO_ERROR)))

    def abort(self, error_code: ErrorCode = ErrorCode.INTERNAL_ERROR) -> None:
        """Crash close: GOAWAY with an error, then tear the TCP
        connection down mid-response.

        The GOAWAY is best-effort -- ``close()`` sends a FIN immediately
        and abandons retransmission, exactly like a process that dies
        with unflushed sockets -- so the client may see only the FIN.
        Idempotent."""
        if self._aborted:
            return
        self._aborted = True
        self._shutting_down = True
        if self._hardening is not None:
            self._hardening.disarm()
        if self.tls.conn.state != "closed":
            # The GOAWAY needs an established TLS session; a connection
            # aborted mid-handshake dies with a bare FIN.
            if self.tls.established:
                last = max((sid for sid in self.streams if sid % 2 == 1),
                           default=0)
                self.send_frame(fr.GoAwayFrame(last_stream_id=last,
                                               error_code=int(error_code)))
            self.tls.conn.close()

    # -- workers -----------------------------------------------------------------

    def _spawn_worker(self, stream_id: int, path: str, dup: bool) -> None:
        if self._aborted:
            return
        stream = self.streams.get(stream_id)
        if stream is None or stream.was_reset:
            return
        obj = self.site.lookup(path)
        self._serve_ids += 1
        serve_id = self._serve_ids

        if not dup:
            self._maybe_push(stream_id, path)

        headers_frame = self._response_headers(stream_id, obj)
        self._enqueue(stream_id, headers_frame)

        if obj is None:
            return
        generation = getattr(obj, "generation", None)
        if generation is not None and not self._dynamic_cache.get(path):
            self._generate_dynamic(stream_id, obj, serve_id, dup)
        else:
            self._enqueue_object(stream_id, obj, serve_id, dup)

    def _maybe_push(self, stream_id: int, path: str) -> None:
        push_map = self.config.push_map
        if not push_map or path not in push_map:
            return
        if not self.peer_settings.enable_push:
            return
        for pushed_path in push_map[path]:
            pushed = self.site.lookup(pushed_path)
            if pushed is None:
                continue
            promised_id = self._next_push_stream_id
            self._next_push_stream_id += 2
            headers = {":method": "GET", ":path": pushed_path,
                       ":authority": self.site.authority}
            block = self.server.hpack.encode_size(sorted(headers.items()))
            self.send_frame(fr.PushPromiseFrame(
                stream_id=stream_id, promised_stream_id=promised_id,
                headers=headers, header_block_len=block))
            pushed_stream = StreamState(promised_id)
            pushed_stream.on_recv_headers(end_stream=True)
            self.streams[promised_id] = pushed_stream
            self._serve_ids += 1
            self._enqueue(promised_id, self._response_headers(promised_id,
                                                              pushed))
            self._enqueue_object(promised_id, pushed, self._serve_ids,
                                 dup=False)

    def _response_headers(self, stream_id: int, obj) -> fr.HeadersFrame:
        if obj is None:
            headers = {":status": "404", "content-length": "0"}
            block = self.server.hpack.encode_size(sorted(headers.items()))
            return fr.HeadersFrame(stream_id=stream_id, headers=headers,
                                   header_block_len=block, end_stream=True)
        headers = {
            ":status": "200",
            "content-type": obj.content_type,
            "content-length": str(obj.size),
            "server": "repro-h2",
            "cache-control": "no-cache" if getattr(obj, "generation", None)
                             else "max-age=3600",
        }
        block = self.server.hpack.encode_size(sorted(headers.items()))
        return fr.HeadersFrame(stream_id=stream_id, headers=headers,
                               header_block_len=block, end_stream=False)

    def _enqueue_object(self, stream_id: int, obj, serve_id: int,
                        dup: bool) -> None:
        chunk = self.config.max_frame_payload
        total = obj.size
        if self.config.pad_object is not None:
            # Defense hook: ship `total` wire bytes for a `obj.size`-byte
            # object (HTTP/2 DATA padding / TLS record padding schemes).
            total = max(total, int(self.config.pad_object(obj.size, self._rng)))
        # Batched delivery: append every DATA frame of the object, then
        # pump once.  The enqueue loop runs inside a single simulator
        # event, so one pump at the end transmits the identical frames
        # in the identical order as a pump per frame -- without paying
        # the scheduler/backlog bookkeeping per frame (a large object is
        # hundreds of frames).
        offset = 0
        frames = []
        while offset < total:
            length = min(chunk, total - offset)
            offset += length
            frames.append(fr.DataFrame(
                stream_id=stream_id, length=length,
                end_stream=(offset >= total),
                object_ref=obj, serve_id=serve_id, object_offset=offset - length,
            ))
        self._enqueue_batch(stream_id, frames, dup=dup)

    def _generate_dynamic(self, stream_id: int, obj, serve_id: int,
                          dup: bool) -> None:
        rng = self.sim.rng(f"dynamic:{obj.path}")
        schedule = obj.generation.plan(rng, obj.size)
        gap, _ = schedule[0]
        self.sim.schedule(gap, self._emit_dynamic_chunk,
                          stream_id, obj, serve_id, dup, 0, schedule, 0)

    def _emit_dynamic_chunk(self, stream_id: int, obj, serve_id: int,
                            dup: bool, offset: int, schedule, index: int) -> None:
        stream = self.streams.get(stream_id)
        if stream is None or stream.was_reset:
            # Generation keeps running server-side; cache the result so a
            # re-request is served fast.
            self._dynamic_cache[obj.path] = True
            return
        frame_cap = self.config.max_frame_payload
        _, chunk_len = schedule[index]
        chunk_len = min(chunk_len, obj.size - offset)
        # A generation chunk may span several DATA frames; batch them
        # into one enqueue + pump (same wire order, one bookkeeping pass).
        emitted = 0
        frames = []
        while emitted < chunk_len:
            length = min(frame_cap, chunk_len - emitted)
            emitted += length
            end = offset + emitted >= obj.size
            frames.append(fr.DataFrame(
                stream_id=stream_id, length=length, end_stream=end,
                object_ref=obj, serve_id=serve_id,
                object_offset=offset + emitted - length,
            ))
        self._enqueue_batch(stream_id, frames, dup=dup)
        offset += chunk_len
        if offset >= obj.size or index + 1 >= len(schedule):
            self._dynamic_cache[obj.path] = True
            return
        gap, _ = schedule[index + 1]
        self.sim.schedule(gap, self._emit_dynamic_chunk,
                          stream_id, obj, serve_id, dup, offset, schedule,
                          index + 1)

    # -- scheduling into TCP ---------------------------------------------------

    def _enqueue(self, stream_id: int, frame: fr.Frame, dup: bool = False) -> None:
        self._enqueue_batch(stream_id, (frame,), dup=dup)

    def _enqueue_batch(self, stream_id: int, frames, dup: bool = False) -> None:
        queue = self.stream_queues.get(stream_id)
        if queue is None:
            queue = deque()
            self.stream_queues[stream_id] = queue
        for frame in frames:
            queue.append((frame, dup))
        if self._hardening is not None:
            self._hardening.on_frames_queued()
        self.pump()

    def pump(self) -> None:
        """Drain stream queues into TCP while there is room."""
        tcp = self.tls.conn
        if self._aborted or self.server.stalled or tcp.state == "closed":
            # A stalled server mux stops transmitting (workers keep
            # queueing); an aborted/closed connection has nowhere to
            # transmit to.
            return
        watermark = self.config.backlog_watermark_bytes
        while tcp.unsent_backlog < watermark:
            eligible = self._eligible_streams()
            if not eligible:
                break
            sid = self.scheduler.pick(eligible)
            queue = self.stream_queues[sid]
            frame, dup = queue.popleft()
            if not queue:
                del self.stream_queues[sid]
                # A queue can be transiently empty while a worker is
                # still enqueueing (TCP backpressure gates its loop);
                # the stream is *done* for scheduling purposes only at
                # END_STREAM, or FIFO service would lose its place.
                if getattr(frame, "end_stream", False):
                    self.scheduler.on_stream_done(sid)
            self._transmit(sid, frame, dup)

    def _eligible_streams(self) -> List[int]:
        eligible = []
        for sid in sorted(self.stream_queues):
            stream = self.streams.get(sid)
            if stream is not None and stream.was_reset:
                continue
            head = self.stream_queues[sid][0][0]
            if isinstance(head, fr.DataFrame) and not self.can_send_data(
                    sid, head.length):
                continue
            eligible.append(sid)
        return eligible

    def _transmit(self, sid: int, frame: fr.Frame, dup: bool = False) -> None:
        tcp = self.tls.conn
        offset = tcp.send_buffer.total_written
        is_data = isinstance(frame, fr.DataFrame)
        if is_data:
            self.send_data_frame(frame)
            stream = self.streams.get(sid)
            # Duplicate-serve copies keep flowing after the first copy
            # closed the stream (the paper's Fig. 4 behaviour); the state
            # machine only tracks the first serve.
            if stream is not None and not stream.is_closed:
                stream.on_send_data(frame.length, frame.end_stream)
        else:
            self.send_frame(frame)
        self.tx_log.append(TxEntry(
            time=self.sim.now,
            stream_id=sid,
            object_path=(frame.object_ref.path if is_data and frame.object_ref
                         else ""),
            serve_id=frame.serve_id if is_data else 0,
            tcp_offset=offset,
            length=frame.length if is_data else 0,
            is_data=is_data,
            end_stream=getattr(frame, "end_stream", False),
            duplicate=dup,
        ))


class Http2Server:
    """Accepts connections on a host and serves a site."""

    def __init__(self, sim, host, site, config: Optional[Http2ServerConfig] = None,
                 tcp_config: Optional[TcpConfig] = None):
        self.sim = sim
        self.host = host
        self.site = site
        self.config = config or Http2ServerConfig()
        self.hpack = HpackEncoder()
        #: Frame taps shared by every accepted connection (see
        #: :attr:`repro.http2.connection.Http2Connection.taps`).
        self.taps: List[Callable] = []
        self.connections: List[ServerConnection] = []
        #: While True the mux pump transmits nothing (a wedged worker
        #: pool / GC pause / overloaded host); workers keep generating.
        self.stalled = False
        self.stalls = 0
        #: Accepts refused at the ``max_connections`` cap.
        self.refused_connections = 0
        #: Connections shed for exceeding a rate/queue budget.
        self.shed_connections = 0
        #: Slowest-connection evictions made to admit a new accept.
        self.reaped_connections = 0
        #: Connections killed by a handshake/preamble deadline.
        self.timed_out_connections = 0

        tcp_config = tcp_config or TcpConfig(deliver_duplicates=True)
        self.tcp = TcpStack(sim, host, tcp_config)
        self.tcp.listen(self.config.port, self._on_accept)

    #: Minimum idle time before an established connection may be reaped
    #: to admit a new accept.  A connection mid-page-load receives
    #: frames far more often than this; one that finished (or stalled)
    #: goes quiet for longer.
    REAP_IDLE_MIN_S = 1.0

    def _on_accept(self, conn: TcpConnection) -> None:
        live = [c for c in self.connections if not c._aborted]
        if len(live) >= self.config.max_connections:
            victim = None
            if self.config.reap_slowest_at_capacity:
                # Reap the longest-idle *established* connection.  A
                # connection that never finished TLS is already on the
                # handshake deadline's clock, and in an accept burst it
                # is indistinguishable from the newcomer itself -- so it
                # is never a reaping candidate; with no eligible victim
                # the newcomer is refused instead.  Stable min keeps the
                # choice deterministic.
                idle = [c for c in live if c.tls.established
                        and self.sim.now - c.last_activity_s
                        >= self.REAP_IDLE_MIN_S]
                if idle:
                    victim = min(idle, key=lambda c: c.last_activity_s)
            if victim is None:
                self.refused_connections += 1
                return  # connection flood: refuse, keep the rest alive
            victim.shed_reason = "reaped: slowest at accept capacity"
            victim.abort(ErrorCode.ENHANCE_YOUR_CALM)
            self.reaped_connections += 1
        tls = TlsSession(conn, role="server")
        self.connections.append(ServerConnection(self, tls))

    # -- fault-injection control surface ---------------------------------

    def stall(self) -> None:
        """Freeze the mux: no frame leaves any connection until
        :meth:`resume`.  Idempotent."""
        if not self.stalled:
            self.stalled = True
            self.stalls += 1

    def resume(self) -> None:
        """Unfreeze the mux and drain whatever queued up meanwhile."""
        if not self.stalled:
            return
        self.stalled = False
        for connection in self.connections:
            connection.pump()

    def abort_connections(self,
                          error_code: ErrorCode = ErrorCode.INTERNAL_ERROR,
                          ) -> None:
        """Crash-close every open connection (GOAWAY + immediate FIN)."""
        for connection in list(self.connections):
            connection.abort(error_code)

    def combined_tx_log(self) -> List[TxEntry]:
        """Concatenated transmission log across connections."""
        entries: List[TxEntry] = []
        for connection in self.connections:
            entries.extend(connection.tx_log)
        entries.sort(key=lambda e: (e.time, e.tcp_offset))
        return entries
