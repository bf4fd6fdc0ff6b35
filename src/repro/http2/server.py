"""Multi-worker HTTP/2 server.

Models the server of the paper's Figure 3: every GET spawns a worker
("thread") after a small processing delay; workers queue HEADERS and
body cursors on per-stream queues; a
:class:`~repro.http2.scheduler.MuxScheduler` drains those queues
round-robin into the shared TCP stream, cutting one DATA frame per pick,
interleaving the objects.  Three behaviours matter to the attack and are
modelled faithfully:

* **Duplicate GET service** (Fig. 4): when the TCP layer re-delivers a
  retransmitted GET (duplicate-delivery mode) the server spawns another
  worker and serves another copy of the object, intensifying
  multiplexing.  Disable with ``serve_duplicate_requests=False``.
* **RST_STREAM flush** (Section IV-D): a reset closes the stream and
  drops its queue immediately; the DATA frames its cursors had not yet
  cut are never built.
* **Dynamic objects**: the survey result HTML is generated in chunks
  over time; once generated, the result is cached so a re-request (after
  the adversary forces a reset) is served fast and alone.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, NamedTuple, Optional

from repro.http2 import frames as fr
from repro.http2.connection import Http2Connection
from repro.http2.errors import ErrorCode
from repro.http2.hpack import HpackEncoder
from repro.http2.priority import PriorityTree
from repro.http2.scheduler import MuxScheduler, make_scheduler
from repro.http2.settings import Http2Settings
from repro.http2.stream import StreamState
from repro.simnet.timers import TimerWheel
from repro.tcp.connection import (CACHED_SSTHRESH_BYTES, TcpConfig,
                                  TcpConnection, TcpStack)
from repro.tls.session import HTTPS_PORT, TlsSession

#: DATA payload bytes per frame; one frame rides one TLS record and
#: (with the default MSS) one packet -- the interleave granularity.
MAX_FRAME_PAYLOAD = 1370
#: Mean of the exponential per-request worker spawn delay (seconds).
PROCESSING_DELAY_MEAN_S = 0.0008
#: Keep the TCP unsent backlog at most this many bytes ahead of the
#: scheduler, so interleaving decisions happen at wire pace.
BACKLOG_WATERMARK_BYTES = 4 * 1400


@dataclass
class Http2ServerConfig:
    """Server tunables."""

    scheduler: str = "round-robin"
    #: Reproduce the paper's observed re-serving of retransmitted GETs.
    serve_duplicate_requests: bool = True
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
    #: Arm the resource-robustness layer (docs/DOS.md): the deadlines
    #: and budgets below on every connection, and at the
    #: ``max_connections`` cap the abort of the connection with the
    #: oldest activity instead of refusing the newcomer.  Off (the
    #: default), the server schedules no deadline events and is
    #: byte-identical to the pre-hardening model.
    hardened: bool = False

    def __post_init__(self) -> None:
        if self.max_connections <= 0:
            raise ValueError(f"Http2ServerConfig.max_connections must be "
                             f"> 0, got {self.max_connections}")


# -- resource-robustness layer (docs/DOS.md) ---------------------------------
#
# The budgets of a hardened server.  They sit above the detector
# thresholds of :mod:`repro.invariants.dos_detector` (detect, then
# shield) and below every attack intensity ``repro dos`` sweeps.

#: Accept-to-TLS-established deadline (kills silent TCP dialers).
HANDSHAKE_TIMEOUT_S = 2.5
#: TLS-established-to-client-SETTINGS deadline.
PREAMBLE_TIMEOUT_S = 2.5
#: HEADERS(END_STREAM=0)-to-first-body-byte deadline per stream.
HEADER_TIMEOUT_S = 3.0
#: Maximum gap between request-body DATA frames per stream.
BODY_PROGRESS_TIMEOUT_S = 1.0
#: Per-connection PING budget per second of simulated time.
MAX_PINGS_PER_S = 30.0
#: Per-connection non-ack SETTINGS budget per second.
MAX_SETTINGS_PER_S = 15.0
#: Per-connection RST_STREAM budget per second (rapid-reset guard).
MAX_RESETS_PER_S = 25.0
#: Per-connection open-stream cap below ``max_concurrent_streams``.
MAX_OPEN_STREAMS = 32
#: Per-connection cap on response frames queued for the mux (the
#: memory proxy); exceeding it sheds the connection.
MAX_QUEUED_FRAMES = 2000


class _ConnectionHardening:
    """Per-connection resource-robustness state (docs/DOS.md).

    Created only on a ``hardened`` server -- an unhardened connection
    carries ``None`` and pays one ``is not None`` test per frame.
    Deadlines live on a :class:`~repro.simnet.timers.TimerWheel`; rate
    budgets are plain per-second windows on the simulator clock, so
    nothing here schedules an event but a deadline.
    """

    def __init__(self, conn: "ServerConnection"):
        self.conn = conn
        self.timers = TimerWheel(conn.sim)
        #: ``key -> [window_start_s, count]`` rate-budget windows.
        self._windows: Dict[str, List] = {}
        #: Streams whose request body is still expected (END_STREAM unseen).
        self._pending_bodies: set = set()
        #: Streams refused by the per-connection ``MAX_OPEN_STREAMS`` cap.
        self.capped_streams = 0
        self.timers.arm("handshake", HANDSHAKE_TIMEOUT_S,
                        self._connection_deadline, "handshake")

    # -- connection lifecycle ------------------------------------------------

    def on_tls_established(self) -> None:
        self.timers.cancel("handshake")
        self.timers.arm("preamble", PREAMBLE_TIMEOUT_S,
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
            return self._within_budget("settings", MAX_SETTINGS_PER_S)
        if isinstance(frame, fr.PingFrame):
            if frame.ack:
                return True
            return self._within_budget("ping", MAX_PINGS_PER_S)
        if isinstance(frame, fr.RstStreamFrame):
            self._stream_done(frame.stream_id)
            return self._within_budget("reset", MAX_RESETS_PER_S)
        if isinstance(frame, fr.DataFrame):
            self._on_body_data(frame)
        return True

    def admit_stream(self, frame: fr.HeadersFrame) -> bool:
        """Per-connection open-stream cap, checked before stream setup."""
        if self.conn._open_stream_count() >= MAX_OPEN_STREAMS:
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
        self.timers.arm(f"hdr:{frame.stream_id}", HEADER_TIMEOUT_S,
                        self._stream_deadline, frame.stream_id)

    def _on_body_data(self, frame: fr.DataFrame) -> None:
        stream_id = frame.stream_id
        if stream_id not in self._pending_bodies:
            return
        self.timers.cancel(f"hdr:{stream_id}")
        if frame.end_stream:
            self._stream_done(stream_id)
        else:
            self.timers.arm(f"body:{stream_id}", BODY_PROGRESS_TIMEOUT_S,
                            self._stream_deadline, stream_id)

    def _stream_done(self, stream_id: int) -> None:
        self._pending_bodies.discard(stream_id)
        self.timers.cancel(f"hdr:{stream_id}")
        self.timers.cancel(f"body:{stream_id}")

    # -- budgets, queue cap, deadlines ---------------------------------------

    def _within_budget(self, key: str, per_s: float) -> bool:
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
        queued = self.conn.queued_frames
        if queued > MAX_QUEUED_FRAMES:
            self._shed(f"{queued} response frames queued exceeds cap "
                       f"{MAX_QUEUED_FRAMES}")

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
        self.conn.timed_out_streams += 1
        self._stream_done(stream_id)
        self.conn._reset_stream(stream_id, ErrorCode.CANCEL)


@dataclass(slots=True)
class _DataRun:
    """One serve's body bytes still queued on a stream, from ``offset``
    to ``stop``; the frame that reaches ``end`` carries END_STREAM.  The
    mux cuts one DATA frame of at most ``MAX_FRAME_PAYLOAD`` bytes per
    pick, so a frame is built only when it is sent."""

    obj: object
    serve_id: int
    offset: int
    stop: int
    end: int
    dup: bool

    def cut(self, stream_id: int) -> fr.DataFrame:
        """The next frame; advances the cursor past it."""
        offset = self.offset
        length = min(MAX_FRAME_PAYLOAD, self.stop - offset)
        self.offset = offset + length
        return fr.DataFrame(stream_id=stream_id, length=length,
                            end_stream=self.offset >= self.end,
                            object_ref=self.obj, serve_id=self.serve_id,
                            object_offset=offset)


def _frames(entry) -> int:
    """Frames a queue entry stands for: a cursor counts those it has
    left to cut."""
    if type(entry) is _DataRun:
        return -(-(entry.stop - entry.offset) // MAX_FRAME_PAYLOAD)
    return 1


class TxEntry(NamedTuple):
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
        #: Client-opened (odd) ids that may still be open, in arrival
        #: order; :meth:`_open_stream_count` prunes the closed ones.
        self._open_candidates: List[int] = []
        #: Per-stream response queues of ``(HEADERS frame, dup_serve)``
        #: pairs (frames are slotted; the flag rides beside) and body
        #: cursors (:class:`_DataRun`).
        self.stream_queues: Dict[int, Deque] = {}
        #: Frames the queues hold, counting each cursor as the frames it
        #: has left to cut (the hardening's ``MAX_QUEUED_FRAMES`` reads it).
        self.queued_frames = 0
        #: Ascending ids of ``stream_queues``, updated in place by
        #: :meth:`_open_queue` / :meth:`_drop_queue` so a scheduler pick
        #: never re-sorts the queued streams.
        self._queued_sids: List[int] = []
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
        #: Streams the hardening reset on a header/body-progress
        #: deadline (always 0 on an unhardened server).
        self.timed_out_streams = 0
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
            _ConnectionHardening(self) if server.config.hardened else None)
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
        peer, retire local state, drop the stream's queue."""
        stream = self.streams.get(stream_id)
        if stream is None or stream.was_reset:
            return
        if not self._aborted and self.tls.conn.state != "closed":
            self.send_frame(fr.RstStreamFrame(stream_id=stream_id,
                                              error_code=int(error_code)))
        stream.on_recv_rst(int(error_code))
        if self._drop_queue(stream_id):
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
            stream = self.streams.get(frame.stream_id)
            if stream is None:
                stream = StreamState(frame.stream_id)
                self.streams[frame.stream_id] = stream
                if frame.stream_id % 2 == 1:
                    self._open_candidates.append(frame.stream_id)
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

        delay = self._rng.expovariate(1.0 / PROCESSING_DELAY_MEAN_S)
        self.sim.schedule(delay, self._spawn_worker, frame.stream_id, path, dup)

    def handle_priority(self, frame: fr.PriorityFrame) -> None:
        self.priority_tree.add_stream(frame.stream_id, frame.depends_on,
                                      frame.weight, frame.exclusive)

    def handle_rst_stream(self, frame: fr.RstStreamFrame) -> None:
        stream = self.streams.get(frame.stream_id)
        if stream is not None:
            stream.on_recv_rst(frame.error_code)
        # Drop the stream's queue, uncut frames and all (the paper's
        # observation about Reset Stream reducing load immediately).
        if self._drop_queue(frame.stream_id):
            self.scheduler.on_stream_done(frame.stream_id)

    def handle_data(self, frame: fr.DataFrame, dup: bool) -> None:
        return None  # Request bodies are out of scope (GET-only workload).

    def handle_window_opened(self) -> None:
        self.pump()

    def _open_stream_count(self) -> int:
        # A closed stream never reopens, so pruning the candidates as
        # they are read is exact.
        streams = self.streams
        self._open_candidates = [sid for sid in self._open_candidates
                                 if not streams[sid].is_closed]
        return len(self._open_candidates)

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
        self._enqueue(stream_id, (headers_frame, False))

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
            self._enqueue(promised_id,
                          (self._response_headers(promised_id, pushed), False))
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
        total = obj.size
        if self.config.pad_object is not None:
            # Defense hook: ship `total` wire bytes for a `obj.size`-byte
            # object (HTTP/2 DATA padding / TLS record padding schemes).
            total = max(total, int(self.config.pad_object(obj.size, self._rng)))
        self._enqueue(stream_id, _DataRun(obj, serve_id, 0, total, total, dup))

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
        _, chunk_len = schedule[index]
        chunk_len = min(chunk_len, obj.size - offset)
        # A chunk is a run of its own: no frame spans two chunks.
        self._enqueue(stream_id, _DataRun(
            obj, serve_id, offset, offset + chunk_len, obj.size, dup))
        offset += chunk_len
        if offset >= obj.size or index + 1 >= len(schedule):
            self._dynamic_cache[obj.path] = True
            return
        gap, _ = schedule[index + 1]
        self.sim.schedule(gap, self._emit_dynamic_chunk,
                          stream_id, obj, serve_id, dup, offset, schedule,
                          index + 1)

    # -- scheduling into TCP ---------------------------------------------------

    def _enqueue(self, stream_id: int, entry) -> None:
        queue = self.stream_queues.get(stream_id)
        if queue is None:
            queue = self._open_queue(stream_id)
        queue.append(entry)
        self.queued_frames += _frames(entry)
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
        pick = self.scheduler.pick
        ready = self._queued_sids
        sendable = self._sendable
        while tcp.unsent_backlog < BACKLOG_WATERMARK_BYTES:
            sid = pick(ready, sendable)
            if sid is None:
                break
            queue = self.stream_queues[sid]
            head = queue[0]
            if type(head) is _DataRun:
                frame = head.cut(sid)
                dup = head.dup
                if head.offset >= head.stop:
                    queue.popleft()
            else:
                frame, dup = queue.popleft()
            self.queued_frames -= 1
            if not queue:
                self._drop_queue(sid)
                # A queue can be empty between two chunks of a dynamic
                # object; the stream is *done* for scheduling purposes
                # only at END_STREAM, or FIFO service would lose its place.
                if getattr(frame, "end_stream", False):
                    self.scheduler.on_stream_done(sid)
            self._transmit(sid, frame, dup)

    def _open_queue(self, sid: int) -> Deque:
        queue: Deque = deque()
        self.stream_queues[sid] = queue
        insort(self._queued_sids, sid)
        return queue

    def _drop_queue(self, sid: int) -> bool:
        """Forget ``sid``'s queue and the frames it held; False if it
        had none."""
        queue = self.stream_queues.pop(sid, None)
        if queue is None:
            return False
        del self._queued_sids[bisect_left(self._queued_sids, sid)]
        self.queued_frames -= sum(map(_frames, queue))
        return True

    def _sendable(self, sid: int) -> bool:
        """The scheduler's eligibility test for a queued stream.

        ``can_send_data`` creates a stream's send window on first use,
        from the peer's SETTINGS_INITIAL_WINDOW_SIZE.  Round-robin tests
        only the streams it passes over, so that first use can come
        later than a test of every queued stream would make it.  The
        window is the same: the peer's SETTINGS precede its first
        HEADERS, and so any queue, and no peer here changes its initial
        window size after that.
        """
        stream = self.streams.get(sid)
        if stream is not None and stream.was_reset:
            return False
        head = self.stream_queues[sid][0]
        return type(head) is not _DataRun or self.can_send_data(
            sid, min(MAX_FRAME_PAYLOAD, head.stop - head.offset))

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
        if is_data:
            entry = (self.sim.now, sid,
                     frame.object_ref.path if frame.object_ref else "",
                     frame.serve_id, offset, frame.length, True,
                     frame.end_stream, dup)
        else:
            entry = (self.sim.now, sid, "", 0, offset, 0, False,
                     getattr(frame, "end_stream", False), dup)
        self.tx_log.append(tuple.__new__(TxEntry, entry))


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

        # The server's TCP profile: retransmitted GETs are re-served
        # (Fig. 4), and slow start uses a cached ssthresh.
        tcp_config = tcp_config or TcpConfig(
            deliver_duplicates=True,
            initial_ssthresh_bytes=CACHED_SSTHRESH_BYTES)
        self.tcp = TcpStack(sim, host, tcp_config)
        self.tcp.listen(HTTPS_PORT, self._on_accept)

    #: Minimum idle time before an established connection may be reaped
    #: to admit a new accept.  A connection mid-page-load receives
    #: frames far more often than this; one that finished (or stalled)
    #: goes quiet for longer.
    REAP_IDLE_MIN_S = 1.0

    def _on_accept(self, conn: TcpConnection) -> None:
        live = [c for c in self.connections if not c._aborted]
        if len(live) >= self.config.max_connections:
            victim = None
            if self.config.hardened:
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

    def abort_connections(self) -> None:
        """Crash-close every open connection (GOAWAY + immediate FIN)."""
        for connection in list(self.connections):
            connection.abort()

    def combined_tx_log(self) -> List[TxEntry]:
        """Concatenated transmission log across connections."""
        entries: List[TxEntry] = []
        for connection in self.connections:
            entries.extend(connection.tx_log)
        entries.sort(key=lambda e: (e.time, e.tcp_offset))
        return entries
