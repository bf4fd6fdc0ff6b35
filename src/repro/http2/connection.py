"""Shared HTTP/2 connection machinery over a TLS session.

Handles the connection preface, SETTINGS exchange, frame-to-record
packing, send-side flow-control windows and receive-side auto
WINDOW_UPDATE, PING echo and GOAWAY.  :class:`repro.http2.server` and
:class:`repro.http2.client` subclass this with endpoint behaviour.

Framing choice: every frame rides in its own TLS record.  DATA frames
are chunked by the sender to ``MAX_FRAME_PAYLOAD`` (1370 bytes),
which makes one DATA frame == one record == one MSS-sized packet -- the
"segment" granularity of the paper's Figures 1 and 3.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.http2 import frames as fr
from repro.http2.flow_control import FlowControlWindow, ReceiveWindowManager
from repro.http2.settings import Http2Settings
from repro.tls.session import TlsSession

#: "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"
CLIENT_PREFACE_LEN = 24
#: RFC 7540: both flow-control windows start at 65535 until updated.
DEFAULT_WINDOW = 65_535
#: Connection-level receive window every endpoint grants its peer,
#: raised from ``DEFAULT_WINDOW`` by a WINDOW_UPDATE after the preface.
CONNECTION_WINDOW = 12 << 20


class Http2Connection:
    """One endpoint of an HTTP/2 connection."""

    def __init__(self, sim, tls: TlsSession, taps: List[Callable],
                 settings: Http2Settings):
        self.sim = sim
        self.tls = tls
        self.settings = settings
        self.peer_settings = Http2Settings()
        self.role = tls.role
        self.ready = False
        self.goaway_received = False
        self.on_ready: Optional[Callable[[], None]] = None

        self._preface_sent = False
        self._settings_received = False
        #: Observation taps: each ``tap(conn, direction, frame, dup)``
        #: fires per frame sent ("send", dup False) or dispatched
        #: ("recv").  This is the owning endpoint's list, held by
        #: reference, so a tap appended to the owner at any time sees
        #: every later frame.  Taps only observe.
        self.taps = taps

        # Send-side flow control (credit granted by the peer).
        self.send_window_connection = FlowControlWindow(DEFAULT_WINDOW, "conn-send")
        self.send_window_streams: Dict[int, FlowControlWindow] = {}

        # Receive-side accounting (credit we grant the peer).
        self._recv_conn = ReceiveWindowManager(CONNECTION_WINDOW)
        self._recv_streams: Dict[int, ReceiveWindowManager] = {}

        self.frames_sent = 0
        self.frames_received = 0
        self.duplicate_headers_received = 0

        tls.on_established = self._on_tls_established
        tls.on_application_record = self._on_record
        if tls.established:
            self._on_tls_established(tls)

    # -- startup -------------------------------------------------------------

    def _on_tls_established(self, _tls: TlsSession) -> None:
        self._send_preface()

    def _send_preface(self) -> None:
        if self._preface_sent:
            return
        self._preface_sent = True
        settings_frame = fr.SettingsFrame(settings=self.settings.to_wire())
        extra = CLIENT_PREFACE_LEN if self.role == "client" else 0
        self._send_record([settings_frame], extra_bytes=extra)
        if CONNECTION_WINDOW > DEFAULT_WINDOW:
            self.send_frame(fr.WindowUpdateFrame(
                stream_id=0, increment=CONNECTION_WINDOW - DEFAULT_WINDOW))

    # -- frame egress -----------------------------------------------------------

    def send_frame(self, frame: fr.Frame) -> None:
        """Send one frame in its own TLS record."""
        self._send_record([frame])

    def _send_record(self, frame_list, extra_bytes: int = 0) -> None:
        for tap in self.taps:
            for frame in frame_list:
                tap(self, "send", frame, False)
        payload_len = sum(f.wire_size for f in frame_list) + extra_bytes
        self.tls.send_application(tuple(frame_list), payload_len)
        self.frames_sent += len(frame_list)

    def send_data_frame(self, frame: fr.DataFrame) -> None:
        """Send DATA, spending flow-control credit."""
        window = self._stream_send_window(frame.stream_id)
        self.send_window_connection.consume(frame.length)
        window.consume(frame.length)
        self.send_frame(frame)

    def can_send_data(self, stream_id: int, nbytes: int) -> bool:
        """True when both windows cover ``nbytes``."""
        return (self.send_window_connection.can_send(nbytes)
                and self._stream_send_window(stream_id).can_send(nbytes))

    def _stream_send_window(self, stream_id: int) -> FlowControlWindow:
        window = self.send_window_streams.get(stream_id)
        if window is None:
            window = FlowControlWindow(self.peer_settings.initial_window_size,
                                       f"stream-{stream_id}-send")
            self.send_window_streams[stream_id] = window
        return window

    # -- frame ingress ------------------------------------------------------------

    def _on_record(self, record, dup: bool) -> None:
        payload = record.payload
        if not isinstance(payload, tuple):
            return
        for frame in payload:
            self.frames_received += 1
            self._dispatch(frame, dup)

    def _dispatch(self, frame: fr.Frame, dup: bool) -> None:
        if isinstance(frame, fr.SettingsFrame):
            if not dup:
                self._on_settings(frame)
        elif isinstance(frame, fr.WindowUpdateFrame):
            if not dup:
                self._on_window_update(frame)
        elif isinstance(frame, fr.PingFrame):
            if not frame.ack and not dup:
                self.send_frame(fr.PingFrame(ack=True))
        elif isinstance(frame, fr.GoAwayFrame):
            self.goaway_received = True
            self.handle_goaway(frame)
        elif isinstance(frame, fr.HeadersFrame):
            if dup:
                self.duplicate_headers_received += 1
            self.handle_headers(frame, dup)
        elif isinstance(frame, fr.DataFrame):
            if not dup:
                self._account_received_data(frame)
            self.handle_data(frame, dup)
        elif isinstance(frame, fr.RstStreamFrame):
            if not dup:
                self.handle_rst_stream(frame)
        elif isinstance(frame, fr.PriorityFrame):
            if not dup:
                self.handle_priority(frame)
        elif isinstance(frame, fr.PushPromiseFrame):
            if not dup:
                self.handle_push_promise(frame)
        # After the handlers, so monitors observe post-update window and
        # stream state (e.g. a WINDOW_UPDATE has already replenished).
        for tap in self.taps:
            tap(self, "recv", frame, dup)

    def _on_settings(self, frame: fr.SettingsFrame) -> None:
        if frame.ack:
            return
        self.peer_settings = Http2Settings.from_wire(frame.settings)
        self.send_frame(fr.SettingsFrame(ack=True))
        if not self.ready:
            self.ready = True
            if self.on_ready is not None:
                self.on_ready()

    def _on_window_update(self, frame: fr.WindowUpdateFrame) -> None:
        if frame.stream_id == 0:
            self.send_window_connection.replenish(frame.increment)
        else:
            self._stream_send_window(frame.stream_id).replenish(frame.increment)
        self.handle_window_opened()

    def _account_received_data(self, frame: fr.DataFrame) -> None:
        conn_update = self._recv_conn.on_data(frame.length)
        if conn_update:
            self.send_frame(fr.WindowUpdateFrame(stream_id=0,
                                                 increment=conn_update))
        manager = self._recv_streams.get(frame.stream_id)
        if manager is None:
            manager = ReceiveWindowManager(self.settings.initial_window_size)
            self._recv_streams[frame.stream_id] = manager
        stream_update = manager.on_data(frame.length)
        if stream_update:
            self.send_frame(fr.WindowUpdateFrame(stream_id=frame.stream_id,
                                                 increment=stream_update))

    # -- endpoint hooks (overridden by server/client) --------------------------

    def handle_headers(self, frame: fr.HeadersFrame, dup: bool) -> None:
        raise NotImplementedError

    def handle_data(self, frame: fr.DataFrame, dup: bool) -> None:
        raise NotImplementedError

    def handle_rst_stream(self, frame: fr.RstStreamFrame) -> None:
        raise NotImplementedError

    def handle_goaway(self, frame: fr.GoAwayFrame) -> None:
        return None

    def handle_priority(self, frame: fr.PriorityFrame) -> None:
        return None

    def handle_push_promise(self, frame: fr.PushPromiseFrame) -> None:
        return None

    def handle_window_opened(self) -> None:
        return None
