"""QUIC-lite connection: datagrams, streams, ACKs, loss recovery.

Faithful to the properties that matter for the attack-transfer
question:

* every packet is an independent datagram -- loss of one never blocks
  other streams' delivery (no transport head-of-line blocking),
* packet numbers are never reused; retransmission resends *frames* in
  fresh packets,
* loss detection is packet-threshold (3 newer packets acked) plus a
  probe timeout, both RACK-era behaviours,
* congestion control reuses :class:`repro.tcp.congestion.RenoCongestionControl`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.quic.frames import AckFrame, QuicPacket, StreamFrame
from repro.simnet.engine import EventHandle, Simulator
from repro.simnet.host import Host
from repro.simnet.packet import HEADER_OVERHEAD, Packet
from repro.tcp.congestion import RenoCongestionControl
from repro.tcp.rto import RtoEstimator

#: Max frame bytes per datagram (QUIC's 1200-byte floor).
MAX_PAYLOAD = 1200
MIN_PTO_S = 0.2
PTO_BACKOFF_CAP = 2
#: Packet-threshold loss detection (RFC 9002's kPacketThreshold).
PACKET_THRESHOLD = 3
INIT_CWND_PACKETS = 10
CWND_CAP_BYTES = 1 << 20


@dataclass(frozen=True)
class _HandshakeFrame:
    """Opaque handshake bytes (Initial/Handshake flights)."""

    length: int
    step: str  # "client-initial" | "server-flight" | "client-done"

    @property
    def wire_size(self) -> int:
        return self.length


@dataclass(frozen=True)
class ResetStreamFrame:
    """RESET_STREAM (the H3 analogue of the paper's RST_STREAM)."""

    stream_id: int

    @property
    def wire_size(self) -> int:
        return 6


@dataclass
class QuicConfig:
    """Connection tunables."""

    initial_ssthresh_bytes: int = 0


class QuicConnection:
    """One endpoint of a QUIC connection."""

    def __init__(self, endpoint: "QuicEndpoint", remote_addr: str, role: str):
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.host = endpoint.host
        self.remote_addr = remote_addr
        self.role = role
        self.config = endpoint.config
        self.established = False

        config = self.config
        self.cc = RenoCongestionControl(
            MAX_PAYLOAD, INIT_CWND_PACKETS, CWND_CAP_BYTES,
            config.initial_ssthresh_bytes)
        self.rtt = RtoEstimator(min_rto=MIN_PTO_S, backoff_cap=PTO_BACKOFF_CAP)

        # Send side.
        self._frame_queue: Deque = deque()
        self._unacked: Dict[int, Tuple[float, QuicPacket]] = {}
        self._bytes_in_flight = 0
        self._largest_acked = 0
        self._pto_timer: Optional[EventHandle] = None
        self._send_offsets: Dict[int, int] = {}
        self._reset_streams: set = set()

        # Receive side: per-stream reassembly.
        self._recv_next: Dict[int, int] = {}
        self._recv_pending: Dict[int, Dict[int, StreamFrame]] = {}

        # App hooks.
        self.on_established: Optional[Callable[["QuicConnection"], None]] = None
        self.on_stream_frame: Optional[Callable[[StreamFrame], None]] = None
        self.on_reset_stream: Optional[Callable[[int], None]] = None
        self.on_send_space: Optional[Callable[[], None]] = None

        self.stats_packets_sent = 0
        self.stats_retransmissions = 0
        self._handshake_seen = 0

    # -- handshake -----------------------------------------------------------

    def start_handshake(self) -> None:
        """Client: send the (padded) Initial."""
        if self.role != "client":
            raise RuntimeError("only the client starts the handshake")
        self._emit(QuicPacket(frames=(
            _HandshakeFrame(length=1172, step="client-initial"),)))

    def _on_handshake(self, frame: _HandshakeFrame) -> None:
        self._handshake_seen += 1
        if self.role == "server" and frame.step == "client-initial":
            self._emit(QuicPacket(frames=(
                _HandshakeFrame(length=1172, step="server-flight"),)))
            self._emit(QuicPacket(frames=(
                _HandshakeFrame(length=900, step="server-flight"),)))
        elif self.role == "client" and frame.step == "server-flight":
            if self._handshake_seen == 2:
                self._emit(QuicPacket(frames=(
                    _HandshakeFrame(length=72, step="client-done"),)))
                self._establish()
        elif self.role == "server" and frame.step == "client-done":
            self._establish()

    def _establish(self) -> None:
        if self.established:
            return
        self.established = True
        if self.on_established is not None:
            self.on_established(self)

    # -- stream egress ------------------------------------------------------------

    def send_stream_frame(self, stream_id: int, length: int, fin: bool,
                          payload: object) -> None:
        """Queue stream bytes; offsets are tracked per stream."""
        offset = self._send_offsets.get(stream_id, 0)
        self._send_offsets[stream_id] = offset + length
        self._frame_queue.append(StreamFrame(
            stream_id=stream_id, offset=offset, length=length, fin=fin,
            payload=payload))
        self._pump()

    def reset_stream(self, stream_id: int) -> None:
        """Abort a stream: drop queued frames, notify the peer."""
        self._reset_streams.add(stream_id)
        self._frame_queue = deque(
            f for f in self._frame_queue
            if not (isinstance(f, StreamFrame) and f.stream_id == stream_id))
        self._frame_queue.append(ResetStreamFrame(stream_id=stream_id))
        self._pump()

    @property
    def queued_bytes(self) -> int:
        return sum(f.wire_size for f in self._frame_queue)

    def _pump(self) -> None:
        """Packetize queued frames up to the congestion window."""
        while self._frame_queue:
            if self._bytes_in_flight >= self.cc.cwnd:
                return
            frames: List = []
            payload = 0
            while (self._frame_queue
                   and payload + self._frame_queue[0].wire_size
                   <= MAX_PAYLOAD):
                frame = self._frame_queue.popleft()
                frames.append(frame)
                payload += frame.wire_size
            if not frames:
                # Oversized single frame: send it alone (sim tolerance).
                frames.append(self._frame_queue.popleft())
            self._emit(QuicPacket(frames=tuple(frames)))
        if (self.on_send_space is not None
                and self.queued_bytes < 4 * MAX_PAYLOAD):
            self.on_send_space()

    def _emit(self, packet: QuicPacket) -> None:
        self.stats_packets_sent += 1
        if packet.is_retransmission:
            self.stats_retransmissions += 1
        self._unacked[packet.packet_number] = (self.sim.now, packet)
        self._bytes_in_flight += packet.wire_size
        self.host.send_packet(Packet(src=self.host.address,
                                     dst=self.remote_addr,
                                     size=HEADER_OVERHEAD + packet.wire_size,
                                     segment=packet))
        self._arm_pto()

    # -- ingress ----------------------------------------------------------------------

    def handle_packet(self, packet: QuicPacket) -> None:
        ack_eliciting = False
        for frame in packet.frames:
            if isinstance(frame, _HandshakeFrame):
                ack_eliciting = True
                self._on_handshake(frame)
            elif isinstance(frame, StreamFrame):
                ack_eliciting = True
                self._on_stream_frame(frame)
            elif isinstance(frame, ResetStreamFrame):
                ack_eliciting = True
                if self.on_reset_stream is not None:
                    self.on_reset_stream(frame.stream_id)
            elif isinstance(frame, AckFrame):
                self._on_ack(frame)
        if ack_eliciting:
            self._send_ack(packet.packet_number)

    def _send_ack(self, packet_number: int) -> None:
        ack = QuicPacket(frames=(AckFrame(largest_acked=packet_number,
                                          acked=(packet_number,)),))
        # Pure ACKs are not congestion-controlled or tracked.
        self.host.send_packet(Packet(src=self.host.address,
                                     dst=self.remote_addr,
                                     size=HEADER_OVERHEAD + ack.wire_size,
                                     segment=ack))

    def _on_stream_frame(self, frame: StreamFrame) -> None:
        """Per-stream in-order delivery; no cross-stream blocking."""
        stream_id = frame.stream_id
        expected = self._recv_next.get(stream_id, 0)
        if frame.end_offset <= expected:
            return  # duplicate
        pending = self._recv_pending.setdefault(stream_id, {})
        pending[frame.offset] = frame
        while expected in pending:
            ready = pending.pop(expected)
            expected = ready.end_offset
            self._recv_next[stream_id] = expected
            if self.on_stream_frame is not None:
                self.on_stream_frame(ready)

    # -- acknowledgements and loss ---------------------------------------------------

    def _on_ack(self, ack: AckFrame) -> None:
        newly_acked = 0
        for number in ack.acked:
            entry = self._unacked.pop(number, None)
            if entry is None:
                continue
            sent_at, packet = entry
            newly_acked += packet.wire_size
            self._bytes_in_flight -= packet.wire_size
            self.rtt.on_rtt_sample(self.sim.now - sent_at)
            self.rtt.on_new_ack()
        if ack.largest_acked > self._largest_acked:
            self._largest_acked = ack.largest_acked
        if newly_acked:
            self.cc.on_ack(newly_acked)
            self._detect_losses()
            self._arm_pto()
            self._pump()

    def _detect_losses(self) -> None:
        """Packet-threshold loss detection (RFC 9002)."""
        lost = [number for number in self._unacked
                if number + PACKET_THRESHOLD <= self._largest_acked]
        if not lost:
            return
        self.cc.on_fast_retransmit(self._bytes_in_flight)
        self.cc.on_recovery_exit()
        for number in sorted(lost):
            self._retransmit(number)

    def _retransmit(self, number: int) -> None:
        sent_at, packet = self._unacked.pop(number)
        self._bytes_in_flight -= packet.wire_size
        frames = tuple(f for f in packet.frames
                       if not isinstance(f, AckFrame)
                       and not (isinstance(f, StreamFrame)
                                and f.stream_id in self._reset_streams))
        if not frames:
            return
        replacement = QuicPacket(frames=frames, is_retransmission=True)
        self._emit(replacement)

    def _arm_pto(self) -> None:
        if self._pto_timer is not None:
            self._pto_timer.cancel()
            self._pto_timer = None
        if not self._unacked:
            return
        self._pto_timer = self.sim.schedule(self.rtt.rto, self._on_pto)

    def _on_pto(self) -> None:
        self._pto_timer = None
        if not self._unacked:
            return
        self.rtt.on_timeout()
        self.cc.on_timeout(self._bytes_in_flight)
        oldest = min(self._unacked)
        self._retransmit(oldest)
        self._arm_pto()


class QuicEndpoint:
    """Per-host QUIC: connection table and handshake dispatch."""

    def __init__(self, sim: Simulator, host: Host,
                 config: Optional[QuicConfig] = None):
        self.sim = sim
        self.host = host
        self.config = config or QuicConfig()
        self._connections: Dict[str, QuicConnection] = {}
        self._on_accept: Optional[Callable[[QuicConnection], None]] = None
        host.register_transport(self)

    def listen(self, on_accept: Callable[[QuicConnection], None]) -> None:
        self._on_accept = on_accept

    def connect(self, remote_addr: str,
                on_established: Callable[[QuicConnection], None],
                ) -> QuicConnection:
        conn = QuicConnection(self, remote_addr, role="client")
        conn.on_established = on_established
        self._connections[remote_addr] = conn
        conn.start_handshake()
        return conn

    def handle_packet(self, packet: Packet) -> None:
        quic_packet = packet.segment
        if not isinstance(quic_packet, QuicPacket):
            return
        conn = self._connections.get(packet.src)
        if conn is None:
            if self._on_accept is None:
                return
            conn = QuicConnection(self, packet.src, role="server")
            conn.on_established = self._on_accept
            self._connections[packet.src] = conn
        conn.handle_packet(quic_packet)
