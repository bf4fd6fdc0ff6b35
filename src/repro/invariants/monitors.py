"""Attachable runtime monitors asserting simulation conservation laws.

A :class:`MonitorSuite` subscribes to the ``taps`` list every
observation point exposes: the simulator
(:attr:`repro.simnet.engine.Simulator.taps`), links
(:attr:`repro.simnet.link.Link.taps`), TCP stacks
(:attr:`repro.tcp.connection.TcpStack.taps`) and HTTP/2 endpoints
(``taps`` on :class:`repro.http2.server.Http2Server` /
:class:`repro.http2.client.Http2Client`, shared by their connections).
Subscribing is ``x.taps.append(fn)``, so the suite composes with any
other observer on the same point.  An unarmed point loops over an
empty list; armed, the suite *only observes* -- it never schedules
events and never draws randomness -- so an armed run is
byte-identical to an unarmed one.

Checked laws (full catalogue with codes in ``docs/INVARIANTS.md``):

* sim clock never moves backwards across executed events,
* per-link byte conservation (``sent == delivered + drops + in-flight``),
  queue-occupancy bounds and FIFO delivery order,
* TCP sequence-space sanity (``snd_una <= snd_nxt <= written``), payload
  only in ESTABLISHED, emitted segments inside the window, ``rcv_nxt``
  monotone,
* HTTP/2 flow-control: windows never negative, never replenished past
  what the peer could legally grant, never exceeding the initial window
  size; DATA never sent on a stream the sender reset or never announced,
* HPACK dynamic tables within ``0 <= size <= max_size``.

One deliberate non-law: DATA *after* END_STREAM-closed streams is legal
here -- duplicate-serve copies keep flowing after the first copy closed
the stream (the paper's Figure 4 behaviour).  Only reset streams are
off-limits.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List

from repro.http2.connection import DEFAULT_WINDOW
from repro.http2.frames import (
    DataFrame,
    HeadersFrame,
    PushPromiseFrame,
    RstStreamFrame,
    WindowUpdateFrame,
)
from repro.invariants.violations import EventRing, Violation, make_error

#: TCP payload is only legal in this state (string, see repro.tcp.connection).
_ESTABLISHED = "established"

#: Frame kinds the HTTP/2 watch acts on, in ``isinstance`` match order;
#: a frame's kind is the first of these it is an instance of, else None.
_FRAME_KINDS = (HeadersFrame, PushPromiseFrame, RstStreamFrame, DataFrame,
                WindowUpdateFrame)


def _literal(text: str) -> str:
    """``text`` escaped for use inside an :class:`EventRing` template."""
    return text.replace("%", "%%")


class _LinkWatch:
    """Byte-conservation and ordering state for one link direction.

    Runs on every packet event of the link, so everything constant is
    looked up once here: a link's stats object and its config (static
    parameters, see ``LinkConfig``) never change after construction.
    """

    def __init__(self, suite: "MonitorSuite", link):
        self.suite = suite
        self.link = link
        self.sim = link.sim
        self.stats = link.stats
        self.buffer_bytes = link.config.buffer_bytes
        self.where = f"link {link.name}"
        self.line = f"link {_literal(link.name)}: %s %sB"
        self.push = suite.ring.push
        #: id(packet) -> size for accepted-but-not-yet-arrived packets.
        #: The link holds references to these packets (queued handles or
        #: scheduled arrival args), so ids cannot be recycled while here.
        self.inflight: Dict[int, int] = {}
        #: Accept-order packet ids, for the FIFO delivery check.
        self.order: deque = deque()
        #: Ids dropped by ``set_down`` after acceptance; skipped when
        #: they surface at the head of ``order``.
        self.cancelled: Dict[int, bool] = {}

    def handle(self, event: str, packet) -> None:
        if packet is None:
            self.push((self.sim.now, self.line, event, 0))
        else:
            key = id(packet)
            size = packet.size
            self.push((self.sim.now, self.line, event, size))
            if event == "accept":
                self.inflight[key] = size
                self.order.append(key)
            elif event == "arrive":
                if self.inflight.pop(key, None) is None:
                    self.suite.violate(
                        "link", "LINK_PHANTOM_DELIVERY", self.where,
                        "delivered a packet the link never accepted "
                        "(or already delivered)")
                order = self.order
                while order and order[0] in self.cancelled:
                    del self.cancelled[order.popleft()]
                if not order or order.popleft() != key:
                    self.suite.violate(
                        "link", "LINK_FIFO_ORDER", self.where,
                        "packet delivered out of accept order on a "
                        "FIFO link")
            elif event == "depart":
                if not self.link.up:
                    self.suite.violate(
                        "link", "LINK_TX_WHILE_DOWN", self.where,
                        "packet serialized onto a link that is down")
            elif event == "drop_down" and key in self.inflight:
                # Queued packet discarded by set_down before serialization.
                del self.inflight[key]
                self.cancelled[key] = True

        # check_now() as one comparison; it re-runs to report a breach.
        stats = self.stats
        depth = self.link.queue_depth_bytes()
        if (stats.sent != stats.delivered + stats.dropped_loss
                + stats.dropped_queue + stats.dropped_down + len(self.inflight)
                or depth < 0 or depth > self.buffer_bytes):
            self.check_now()

    def check_now(self) -> None:
        """Conservation and bounds, reporting each breach."""
        stats = self.stats
        accounted = (stats.delivered + stats.dropped_loss + stats.dropped_queue
                     + stats.dropped_down + len(self.inflight))
        if stats.sent != accounted:
            self.suite.violate(
                "link", "LINK_CONSERVATION", self.where,
                f"sent={stats.sent} != delivered={stats.delivered} "
                f"+ loss={stats.dropped_loss} + queue={stats.dropped_queue} "
                f"+ down={stats.dropped_down} + in_flight={len(self.inflight)}")
        depth = self.link.queue_depth_bytes()
        if depth < 0 or depth > self.buffer_bytes:
            self.suite.violate(
                "link", "LINK_QUEUE_BOUNDS", self.where,
                f"queue depth {depth}B outside [0, {self.buffer_bytes}]B")


class _TcpWatch:
    """Sequence-space state for one TCP connection endpoint."""

    def __init__(self, suite: "MonitorSuite", conn, label: str):
        self.suite = suite
        self.conn = conn  # strong ref: keeps id(conn) from being recycled
        self.label = label
        self.sim = conn.sim
        self.line = f"tcp {_literal(label)} %s seq=%s len=%s ack=%s"
        self.push = suite.ring.push
        self.last_rcv_nxt = 0

    def handle(self, direction: str, segment) -> None:
        conn = self.conn
        seq = segment.seq
        length = segment.payload_len
        self.push((self.sim.now, self.line, direction, seq, length,
                   segment.ack_no))

        if direction == "send":
            snd_una = conn.snd_una
            snd_nxt = conn.snd_nxt
            written = conn.send_buffer.total_written
            if not (0 <= snd_una <= snd_nxt <= written):
                self.suite.violate(
                    "tcp", "TCP_SEQ_BOUNDS", self.label,
                    f"sender pointers out of order: snd_una={snd_una} "
                    f"snd_nxt={snd_nxt} written={written}")
            if length > 0:
                if conn.state != _ESTABLISHED:
                    self.suite.violate(
                        "tcp", "TCP_DATA_OUTSIDE_ESTABLISHED", self.label,
                        f"payload segment emitted in state {conn.state!r}")
                if seq < snd_una or seq + length > snd_nxt:
                    self.suite.violate(
                        "tcp", "TCP_SEQ_CONTINUITY", self.label,
                        f"segment [{seq}, {seq + length}) outside the "
                        f"sent window [snd_una={snd_una}, "
                        f"snd_nxt={snd_nxt})")
        else:
            rcv_nxt = conn.receive_buffer.rcv_nxt
            if rcv_nxt < self.last_rcv_nxt:
                self.suite.violate(
                    "tcp", "TCP_RCV_NXT_REGRESSION", self.label,
                    f"rcv_nxt moved backwards: {self.last_rcv_nxt} -> "
                    f"{rcv_nxt}")
            self.last_rcv_nxt = rcv_nxt


class _H2Watch:
    """Flow-control and stream-legality state for one HTTP/2 endpoint."""

    def __init__(self, suite: "MonitorSuite", conn, label: str):
        self.suite = suite
        self.conn = conn  # strong ref: keeps id(conn) from being recycled
        self.label = label
        self.sim = conn.sim
        self.line = f"h2 {_literal(label)} %s %s sid=%s%s"
        self.push = suite.ring.push
        self.frame_kinds = suite._frame_kinds
        #: Streams this endpoint has sent or received RST_STREAM on.
        self.reset_streams: Dict[int, bool] = {}
        #: Streams announced by HEADERS / PUSH_PROMISE in either direction.
        self.announced: Dict[int, bool] = {}
        #: Cumulative DATA bytes this endpoint sent, per stream and total.
        self.data_sent: Dict[int, int] = {}
        self.data_sent_total = 0
        #: Cumulative WINDOW_UPDATE credit received, per stream and conn.
        self.wu_received: Dict[int, int] = {}
        self.wu_conn_received = 0
        #: The peer's preface grant: one connection WINDOW_UPDATE received
        #: before any DATA was sent raises the usable connection window
        #: above the RFC default.  Recorded as an allowance, not a grant
        #: against sent bytes.
        self.conn_allowance = 0

    def handle(self, direction: str, frame, dup: bool) -> None:
        kinds = self.frame_kinds.get(type(frame))
        if kinds is None:
            kinds = self.suite._classify_frame(frame)
        name, kind = kinds
        sid = frame.stream_id
        self.push((self.sim.now, self.line, direction, name, sid,
                   " dup" if dup else ""))

        if direction == "send":
            self._on_send(frame, kind, sid)
        elif not dup:
            # Duplicate TCP deliveries are ignored by the connection's
            # own accounting; mirror that (the first copy arrived first).
            self._on_recv(frame, kind, sid)
        if kind is HeadersFrame or kind is PushPromiseFrame:
            self.suite.check_hpack_tables()

    def _on_send(self, frame, kind: type, sid: int) -> None:
        if kind is HeadersFrame:
            self.announced[sid] = True
        elif kind is PushPromiseFrame:
            self.announced[frame.promised_stream_id] = True
        elif kind is RstStreamFrame:
            self.reset_streams[sid] = True
        elif kind is DataFrame:
            suite = self.suite
            if sid in self.reset_streams:
                suite.violate(
                    "http2", "H2_DATA_ON_RESET_STREAM", self.label,
                    f"DATA sent on stream {sid} after RST_STREAM")
            if sid not in self.announced:
                suite.violate(
                    "http2", "H2_DATA_UNKNOWN_STREAM", self.label,
                    f"DATA sent on stream {sid} never announced by "
                    f"HEADERS or PUSH_PROMISE")
            self.data_sent[sid] = self.data_sent.get(sid, 0) + frame.length
            self.data_sent_total += frame.length
            self._check_window_floor(sid)
            self._check_conn_credit(settled=False)

    def _on_recv(self, frame, kind: type, sid: int) -> None:
        if kind is HeadersFrame:
            self.announced[sid] = True
        elif kind is PushPromiseFrame:
            self.announced[frame.promised_stream_id] = True
        elif kind is RstStreamFrame:
            self.reset_streams[sid] = True
        elif kind is WindowUpdateFrame:
            suite = self.suite
            if frame.increment <= 0:
                suite.violate(
                    "http2", "H2_WINDOW_UPDATE_INVALID", self.label,
                    f"WINDOW_UPDATE increment {frame.increment} on stream "
                    f"{sid} (must be positive)")
            elif sid == 0:
                if self.data_sent_total == 0 and self.wu_conn_received == 0 \
                        and self.conn_allowance == 0:
                    self.conn_allowance = frame.increment
                else:
                    self.wu_conn_received += frame.increment
                    if self.wu_conn_received > self.data_sent_total:
                        suite.violate(
                            "http2", "H2_CONN_WINDOW_OVERGRANT", self.label,
                            f"connection credit received "
                            f"({self.wu_conn_received}B beyond the preface "
                            f"grant) exceeds DATA bytes sent "
                            f"({self.data_sent_total}B)")
            else:
                self.wu_received[sid] = (
                    self.wu_received.get(sid, 0) + frame.increment)
                if self.wu_received[sid] > self.data_sent.get(sid, 0):
                    suite.violate(
                        "http2", "H2_STREAM_WINDOW_OVERGRANT", self.label,
                        f"stream {sid} credit received "
                        f"({self.wu_received[sid]}B) exceeds DATA bytes "
                        f"sent ({self.data_sent.get(sid, 0)}B)")
            self._check_window_ceiling(sid)
        self._check_conn_credit(settled=True)

    def _check_window_floor(self, sid: int) -> None:
        """After a DATA send both consumed windows must be >= 0."""
        conn = self.conn
        if conn.send_window_connection.available < 0:
            self.suite.violate(
                "http2", "H2_WINDOW_NEGATIVE", self.label,
                f"connection send window at "
                f"{conn.send_window_connection.available}B")
        window = conn.send_window_streams.get(sid)
        if window is not None and window.available < 0:
            self.suite.violate(
                "http2", "H2_WINDOW_NEGATIVE", self.label,
                f"stream {sid} send window at {window.available}B")

    def _check_conn_credit(self, settled: bool) -> None:
        """The connection send window matches the credit ledger: the RFC
        default, plus every connection WINDOW_UPDATE received, minus
        every DATA byte sent.  A WINDOW_UPDATE's handler may pump DATA
        before the frame's own receive tap counts its credit, so a send
        only bounds the window from below; after a receive the ledger is
        settled and must match exactly."""
        available = self.conn.send_window_connection.available
        ledger = (DEFAULT_WINDOW + self.conn_allowance
                  + self.wu_conn_received - self.data_sent_total)
        if available < ledger or (settled and available != ledger):
            self.suite.violate(
                "http2", "H2_CONN_CREDIT_DRIFT", self.label,
                f"connection send window {available}B but credit ledger "
                f"says {ledger}B ({DEFAULT_WINDOW} + "
                f"{self.conn_allowance + self.wu_conn_received} received "
                f"- {self.data_sent_total} sent)")

    def _check_window_ceiling(self, sid: int) -> None:
        """After a replenish no window may exceed its legal maximum."""
        conn = self.conn
        ceiling = DEFAULT_WINDOW + self.conn_allowance
        if conn.send_window_connection.available > ceiling:
            self.suite.violate(
                "http2", "H2_CONN_WINDOW_EXCEEDS_INITIAL", self.label,
                f"connection send window "
                f"{conn.send_window_connection.available}B above its "
                f"initial value {ceiling}B")
        if sid != 0:
            window = conn.send_window_streams.get(sid)
            initial = conn.peer_settings.initial_window_size
            if window is not None and window.available > initial:
                self.suite.violate(
                    "http2", "H2_STREAM_WINDOW_EXCEEDS_INITIAL", self.label,
                    f"stream {sid} send window {window.available}B above "
                    f"SETTINGS_INITIAL_WINDOW_SIZE {initial}B")


class MonitorSuite:
    """Armed set of invariant monitors for one simulation run.

    ``mode="raise"`` (the default) raises the domain-specific
    :class:`repro.invariants.violations.InvariantViolation` subclass at
    the first breach; ``mode="collect"`` records every breach in
    :attr:`violations` and keeps running -- useful for tests and for
    counting distinct breaches in chaos triage.
    """

    def __init__(self, mode: str = "raise"):
        if mode not in ("raise", "collect"):
            raise ValueError(f"unknown monitor mode {mode!r}")
        self.mode = mode
        self.ring = EventRing()
        self.violations: List[Violation] = []
        self._sim = None
        #: Time of the last executed event; no event precedes the first.
        self._last_clock = float("-inf")
        self._links: List[_LinkWatch] = []
        self._tcp: Dict[int, _TcpWatch] = {}
        self._tcp_labels: Dict[str, int] = {}
        self._h2: Dict[int, _H2Watch] = {}
        self._h2_labels: Dict[str, int] = {}
        self._hpack: List[tuple] = []
        #: Frame class -> ``(type name, kind)``, see :meth:`_classify_frame`.
        self._frame_kinds: Dict[type, tuple] = {}

    # -- wiring ----------------------------------------------------------

    def attach(self, sim, topology=None) -> None:
        """Subscribe the monitors.  Arm ``sim`` and ``topology``
        *before* the endpoints are constructed (the client emits its SYN
        at build time); :meth:`attach_endpoint` can be called later as
        each endpoint comes up -- an endpoint's connections share its
        tap list, so they see every later frame."""
        self._sim = sim
        sim.taps.append(self._on_sim_event)
        if topology is not None:
            for name in sorted(topology.links):
                self.attach_link(topology.links[name])

    def attach_endpoint(self, endpoint) -> None:
        """Arm TCP, frame and HPACK monitors on an ``Http2Server`` or
        ``Http2Client``, labelled by its host's address."""
        side = endpoint.host.address
        endpoint.tcp.taps.append(self._make_tcp_tap(side))
        endpoint.taps.append(self._make_h2_tap(side))
        self.watch_hpack(f"{side}.hpack", endpoint.hpack)

    def attach_link(self, link) -> None:
        """Arm the byte-conservation monitor on one link direction."""
        watch = _LinkWatch(self, link)
        self._links.append(watch)
        link.taps.append(watch.handle)

    def watch_hpack(self, label: str, codec) -> None:
        """Register an encoder/decoder for dynamic-table bound checks."""
        self._hpack.append((label, codec))

    # A stack's segments and an endpoint's frames come in runs on one
    # connection, so each tap remembers the last connection and its
    # watch in front of the id(conn) lookup.

    def _make_tcp_tap(self, side: str) -> Callable:
        last_conn = last_watch = None

        def tap(conn, direction, segment):
            nonlocal last_conn, last_watch
            if conn is not last_conn:
                watch = self._tcp.get(id(conn))
                if watch is None:
                    index = self._tcp_labels.get(side, 0)
                    self._tcp_labels[side] = index + 1
                    watch = _TcpWatch(self, conn, f"tcp {side}#{index}")
                    self._tcp[id(conn)] = watch
                last_conn, last_watch = conn, watch
            last_watch.handle(direction, segment)

        return tap

    def _make_h2_tap(self, side: str) -> Callable:
        last_conn = last_watch = None

        def tap(conn, direction, frame, dup):
            nonlocal last_conn, last_watch
            if conn is not last_conn:
                watch = self._h2.get(id(conn))
                if watch is None:
                    index = self._h2_labels.get(side, 0)
                    self._h2_labels[side] = index + 1
                    watch = _H2Watch(self, conn, f"h2 {side}#{index}")
                    self._h2[id(conn)] = watch
                last_conn, last_watch = conn, watch
            last_watch.handle(direction, frame, dup)

        return tap

    def _classify_frame(self, frame) -> tuple:
        """``(type name, kind)`` of ``frame``'s class for the HTTP/2
        watches, cached in ``_frame_kinds``: both depend on the class
        alone."""
        kind = next((base for base in _FRAME_KINDS
                     if isinstance(frame, base)), None)
        kinds = self._frame_kinds[type(frame)] = (frame.type_name, kind)
        return kinds

    # -- checks ----------------------------------------------------------

    def _on_sim_event(self, when: float, _callback) -> None:
        if when < self._last_clock:
            self.violate("clock", "CLOCK_BACKWARD", "simulator",
                         f"event at t={when:.9f}s after clock reached "
                         f"t={self._last_clock:.9f}s")
        self._last_clock = when

    def check_hpack_tables(self) -> None:
        """Dynamic tables must satisfy ``0 <= size <= max_size``."""
        for label, codec in self._hpack:
            size = codec.table_size
            if size < 0 or size > codec.max_table_size:
                self.violate(
                    "hpack", "HPACK_TABLE_BOUNDS", label,
                    f"dynamic table at {size}B outside "
                    f"[0, {codec.max_table_size}]B")

    def violate(self, domain: str, code: str, where: str, message: str) -> None:
        """Record one breach; raises in ``raise`` mode."""
        at_s = self._sim.now if self._sim is not None else 0.0
        violation = Violation(code=code, domain=domain, at_s=at_s,
                              where=where, message=message,
                              recent=self.ring.snapshot())
        self.violations.append(violation)
        if self.mode == "raise":
            raise make_error(violation)

    def finalize(self) -> List[Violation]:
        """End-of-run sweep: teardown-time conservation and table bounds.

        Returns all collected violations (empty on a clean run).
        """
        for watch in self._links:
            watch.check_now()
        self.check_hpack_tables()
        return self.violations
