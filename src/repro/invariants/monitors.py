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
from typing import Callable, Dict, List, Optional

from repro.http2 import frames as fr
from repro.http2.connection import DEFAULT_WINDOW
from repro.invariants.violations import EventRing, Violation, make_error

#: TCP payload is only legal in this state (string, see repro.tcp.connection).
_ESTABLISHED = "established"


class _LinkWatch:
    """Byte-conservation and ordering state for one link direction."""

    def __init__(self, suite: "MonitorSuite", link):
        self.suite = suite
        self.link = link
        #: id(packet) -> size for accepted-but-not-yet-arrived packets.
        #: The link holds references to these packets (queued handles or
        #: scheduled arrival args), so ids cannot be recycled while here.
        self.inflight: Dict[int, int] = {}
        #: Accept-order packet ids, for the FIFO delivery check.
        self.order: deque = deque()
        #: Ids dropped by ``set_down`` after acceptance; skipped when they
        #: surface at the head of ``order``.
        self.cancelled: Dict[int, bool] = {}

    def handle(self, event: str, packet) -> None:
        link = self.link
        suite = self.suite
        size = packet.size if packet is not None else 0
        suite.ring.record(link.sim.now, f"link {link.name}: {event} {size}B")

        if event == "accept":
            self.inflight[id(packet)] = packet.size
            if not link.config.allow_reorder:
                self.order.append(id(packet))
        elif event == "drop_down" and id(packet) in self.inflight:
            # Queued packet discarded by set_down before serialization.
            del self.inflight[id(packet)]
            self.cancelled[id(packet)] = True
        elif event == "depart":
            if not link.up:
                suite.violate("link", "LINK_TX_WHILE_DOWN", f"link {link.name}",
                              "packet serialized onto a link that is down")
        elif event == "arrive":
            if id(packet) not in self.inflight:
                suite.violate("link", "LINK_PHANTOM_DELIVERY", f"link {link.name}",
                              "delivered a packet the link never accepted "
                              "(or already delivered)")
            else:
                del self.inflight[id(packet)]
            if not link.config.allow_reorder:
                while self.order and self.order[0] in self.cancelled:
                    del self.cancelled[self.order.popleft()]
                if not self.order or self.order.popleft() != id(packet):
                    suite.violate("link", "LINK_FIFO_ORDER", f"link {link.name}",
                                  "packet delivered out of accept order on a "
                                  "FIFO link")

        self.check_now()

    def check_now(self) -> None:
        """Conservation and bounds; cheap enough to run per event."""
        link = self.link
        stats = link.stats
        accounted = (stats.delivered + stats.dropped_loss + stats.dropped_queue
                     + stats.dropped_down + len(self.inflight))
        if stats.sent != accounted:
            self.suite.violate(
                "link", "LINK_CONSERVATION", f"link {link.name}",
                f"sent={stats.sent} != delivered={stats.delivered} "
                f"+ loss={stats.dropped_loss} + queue={stats.dropped_queue} "
                f"+ down={stats.dropped_down} + in_flight={len(self.inflight)}")
        depth = link.queue_depth_bytes()
        if depth < 0 or depth > link.config.buffer_bytes:
            self.suite.violate(
                "link", "LINK_QUEUE_BOUNDS", f"link {link.name}",
                f"queue depth {depth}B outside "
                f"[0, {link.config.buffer_bytes}]B")


class _TcpWatch:
    """Sequence-space state for one TCP connection endpoint."""

    def __init__(self, suite: "MonitorSuite", conn, label: str):
        self.suite = suite
        self.conn = conn  # strong ref: keeps id(conn) from being recycled
        self.label = label
        self.last_rcv_nxt = 0

    def handle(self, direction: str, segment) -> None:
        conn = self.conn
        suite = self.suite
        suite.ring.record(
            conn.sim.now,
            f"tcp {self.label} {direction} seq={segment.seq} "
            f"len={segment.payload_len} ack={segment.ack_no}")

        if direction == "send":
            written = conn.send_buffer.total_written
            if not (0 <= conn.snd_una <= conn.snd_nxt <= written):
                suite.violate(
                    "tcp", "TCP_SEQ_BOUNDS", self.label,
                    f"sender pointers out of order: snd_una={conn.snd_una} "
                    f"snd_nxt={conn.snd_nxt} written={written}")
            if segment.payload_len > 0:
                if conn.state != _ESTABLISHED:
                    suite.violate(
                        "tcp", "TCP_DATA_OUTSIDE_ESTABLISHED", self.label,
                        f"payload segment emitted in state {conn.state!r}")
                if (segment.seq < conn.snd_una
                        or segment.seq + segment.payload_len > conn.snd_nxt):
                    suite.violate(
                        "tcp", "TCP_SEQ_CONTINUITY", self.label,
                        f"segment [{segment.seq}, "
                        f"{segment.seq + segment.payload_len}) outside the "
                        f"sent window [snd_una={conn.snd_una}, "
                        f"snd_nxt={conn.snd_nxt})")
        else:
            rcv_nxt = conn.receive_buffer.rcv_nxt
            if rcv_nxt < self.last_rcv_nxt:
                suite.violate(
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
        suite = self.suite
        suite.ring.record(
            self.conn.sim.now,
            f"h2 {self.label} {direction} {frame.type_name}"
            f" sid={frame.stream_id}" + (" dup" if dup else ""))

        if direction == "send":
            self._on_send(frame)
        elif not dup:
            # Duplicate TCP deliveries are ignored by the connection's
            # own accounting; mirror that (the first copy arrived first).
            self._on_recv(frame)
        if isinstance(frame, (fr.HeadersFrame, fr.PushPromiseFrame)):
            suite.check_hpack_tables()

    def _on_send(self, frame) -> None:
        suite = self.suite
        sid = frame.stream_id
        if isinstance(frame, fr.HeadersFrame):
            self.announced[sid] = True
        elif isinstance(frame, fr.PushPromiseFrame):
            self.announced[frame.promised_stream_id] = True
        elif isinstance(frame, fr.RstStreamFrame):
            self.reset_streams[sid] = True
        elif isinstance(frame, fr.DataFrame):
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

    def _on_recv(self, frame) -> None:
        suite = self.suite
        sid = frame.stream_id
        if isinstance(frame, fr.HeadersFrame):
            self.announced[sid] = True
        elif isinstance(frame, fr.PushPromiseFrame):
            self.announced[frame.promised_stream_id] = True
        elif isinstance(frame, fr.RstStreamFrame):
            self.reset_streams[sid] = True
        elif isinstance(frame, fr.WindowUpdateFrame):
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

    def __init__(self, mode: str = "raise", ring_capacity: int = 48):
        if mode not in ("raise", "collect"):
            raise ValueError(f"unknown monitor mode {mode!r}")
        self.mode = mode
        self.ring = EventRing(ring_capacity)
        self.violations: List[Violation] = []
        self._sim = None
        self._last_clock: Optional[float] = None
        self._links: List[_LinkWatch] = []
        self._tcp: Dict[int, _TcpWatch] = {}
        self._tcp_labels: Dict[str, int] = {}
        self._h2: Dict[int, _H2Watch] = {}
        self._h2_labels: Dict[str, int] = {}
        self._hpack: List[tuple] = []

    # -- wiring ----------------------------------------------------------

    def attach(self, sim, topology=None, server=None, client=None) -> None:
        """Subscribe the monitors.  Arm ``sim`` and ``topology``
        *before* the endpoints are constructed (the client emits its SYN
        at build time); ``attach_server`` / ``attach_client`` can be
        called later as each endpoint comes up -- an endpoint's
        connections share its tap list, so they see every later
        frame."""
        self._sim = sim
        sim.taps.append(self._on_sim_event)
        if topology is not None:
            for name in sorted(topology.links):
                self.attach_link(topology.links[name])
        if server is not None:
            self.attach_server(server)
        if client is not None:
            self.attach_client(client)

    def attach_server(self, server) -> None:
        """Arm TCP, frame and HPACK monitors on an ``Http2Server``."""
        server.tcp.taps.append(self._make_tcp_tap("server"))
        server.taps.append(self._make_h2_tap("server"))
        self.watch_hpack("server.hpack", server.hpack)

    def attach_client(self, client) -> None:
        """Arm TCP, frame and HPACK monitors on an ``Http2Client``."""
        client.tcp.taps.append(self._make_tcp_tap("client"))
        client.taps.append(self._make_h2_tap("client"))
        self.watch_hpack("client.hpack", client.hpack)

    def attach_link(self, link) -> None:
        """Arm the byte-conservation monitor on one link direction."""
        watch = _LinkWatch(self, link)
        self._links.append(watch)
        link.taps.append(watch.handle)

    def watch_hpack(self, label: str, codec) -> None:
        """Register an encoder/decoder for dynamic-table bound checks."""
        self._hpack.append((label, codec))

    def _make_tcp_tap(self, side: str) -> Callable:
        def tap(conn, direction, segment):
            watch = self._tcp.get(id(conn))
            if watch is None:
                index = self._tcp_labels.get(side, 0)
                self._tcp_labels[side] = index + 1
                watch = _TcpWatch(self, conn, f"tcp {side}#{index}")
                self._tcp[id(conn)] = watch
            watch.handle(direction, segment)

        return tap

    def _make_h2_tap(self, side: str) -> Callable:
        def tap(conn, direction, frame, dup):
            watch = self._h2.get(id(conn))
            if watch is None:
                index = self._h2_labels.get(side, 0)
                self._h2_labels[side] = index + 1
                watch = _H2Watch(self, conn, f"h2 {side}#{index}")
                self._h2[id(conn)] = watch
            watch.handle(direction, frame, dup)

        return tap

    # -- checks ----------------------------------------------------------

    def _on_sim_event(self, when: float, _callback) -> None:
        last = self._last_clock
        if last is not None and when < last:
            self.violate("clock", "CLOCK_BACKWARD", "simulator",
                         f"event at t={when:.9f}s after clock reached "
                         f"t={last:.9f}s")
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
