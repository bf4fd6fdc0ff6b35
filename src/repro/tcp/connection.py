"""TCP connection state machine and per-host stack.

The model keeps the mechanisms the attack depends on at full fidelity
(ACK clocking, duplicate ACKs, fast retransmit, RTO with backoff, Reno
windows, reassembly) and simplifies what the attack never touches
(checksums, urgent data, window scaling negotiation, time-wait).

Connection teardown is a single FIN exchange: ``close()`` flushes
nothing and simply signals the peer, since page-load experiments abandon
connections rather than closing them gracefully.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.simnet.engine import EventHandle, Simulator
from repro.simnet.host import Host
from repro.simnet.packet import HEADER_OVERHEAD, Packet
from repro.tcp.buffer import ReceiveBuffer, SendBuffer
from repro.tcp.congestion import RenoCongestionControl
from repro.tcp.rto import RtoEstimator
from repro.tcp.segment import TcpSegment

# Connection states (simplified).
CLOSED = "closed"
SYN_SENT = "syn-sent"
SYN_RCVD = "syn-rcvd"
ESTABLISHED = "established"

#: RTO clamp and pre-sample value (RFC 6298 shape).
MIN_RTO_S = 0.2
MAX_RTO_S = 60.0
INITIAL_RTO_S = 1.0
#: SYN / SYN-ACK retransmission timeout, doubled per attempt.
SYN_RTO_S = 1.0
#: Unsent-backlog threshold below which ``on_send_space`` fires.
SEND_SPACE_WATERMARK_BYTES = 4 * 1400
#: Ceiling on the congestion window.
CWND_CAP_BYTES = 1 << 20
#: Initial congestion window, in segments (RFC 6928).
INIT_CWND_SEGMENTS = 10
#: The peer's receive window, taken as fixed (no window updates).
RWND_BYTES = 1 << 20

#: Slow-start threshold every simulated server (HTTP/2, HTTP/1.1 and
#: QUIC) seeds from cached path metrics.
CACHED_SSTHRESH_BYTES = 48_000


@dataclass
class TcpConfig:
    """Tunables for one connection (both ends should agree on MSS)."""

    mss: int = 1400
    #: Slow-start threshold seeded from cached path metrics (0 = none).
    initial_ssthresh_bytes: int = 0
    #: Max exponential-backoff multiplier.  Keeping this low models the
    #: persistent sub-second probing (TLP re-arming, RACK) of modern
    #: stacks under a bursty-loss path; textbook doubling to minutes
    #: would leave the connection dead long after the adversary's drop
    #: burst ends, which real stacks do not do.
    rto_backoff_cap: int = 2
    #: Re-deliver retransmitted spans to the application flagged as
    #: duplicates.  On the *server*, this reproduces the paper's observed
    #: re-serving of objects whose GET was retransmitted (Fig. 4).
    deliver_duplicates: bool = False
    #: Tail-loss probe (RFC 8985 flavour): retransmit the newest unacked
    #: segment after ~2 SRTT of silence instead of waiting a full RTO.
    #: Without it, a single dropped burst tail stalls the connection for
    #: hundreds of milliseconds and unrelated responses convoy up behind
    #: it.
    enable_tlp: bool = True
    #: RACK-lite: when a new cumulative ACK arrives and the segment now
    #: at the front of the window was last sent more than ~SRTT ago, it
    #: is presumed lost and retransmitted immediately (one per ACK).
    #: This is the SACK/RACK recovery pipeline of modern stacks -- holes
    #: clear at one per RTT instead of one per RTO, which is what lets a
    #: connection shrug off the adversary's drop burst in about a second.
    enable_rack: bool = True


@dataclass
class TcpConnStats:
    """Per-connection counters used by the experiments."""

    segments_sent: int = 0
    segments_received: int = 0
    bytes_sent: int = 0
    retransmits_fast: int = 0
    retransmits_timeout: int = 0
    spurious_retransmits_detected: int = 0
    dup_acks_received: int = 0
    dup_acks_sent: int = 0

    @property
    def retransmits(self) -> int:
        return self.retransmits_fast + self.retransmits_timeout


@dataclass(slots=True)
class _SegmentMeta:
    length: int
    slices: tuple
    first_sent: float
    last_sent: float = 0.0
    retx_count: int = 0


class TcpConnection:
    """One full-duplex connection endpoint."""

    def __init__(self, stack: "TcpStack", remote_addr: str, local_port: int,
                 remote_port: int, config: TcpConfig, role: str):
        self.stack = stack
        self.sim = stack.sim
        self.host = stack.host
        self.remote_addr = remote_addr
        self.local_port = local_port
        self.remote_port = remote_port
        self.config = config
        self.role = role
        self.state = CLOSED
        self.stats = TcpConnStats()

        # Sender side.
        self.send_buffer = SendBuffer()
        self.snd_una = 0
        self.snd_nxt = 0
        self.peer_rwnd = RWND_BYTES
        self.cc = RenoCongestionControl(config.mss, INIT_CWND_SEGMENTS,
                                        CWND_CAP_BYTES,
                                        config.initial_ssthresh_bytes)
        self.rto = RtoEstimator(MIN_RTO_S, MAX_RTO_S, INITIAL_RTO_S,
                                backoff_cap=config.rto_backoff_cap)
        self._sent: Dict[int, _SegmentMeta] = {}
        self._dup_acks = 0
        self._recover_point = 0
        self._rto_timer: Optional[EventHandle] = None
        self._syn_timer: Optional[EventHandle] = None
        self._syn_attempts = 0

        # Receiver side.
        self.receive_buffer = ReceiveBuffer(
            self._deliver_to_app, deliver_duplicates=config.deliver_duplicates)

        # Application hooks.
        self.on_established: Optional[Callable[["TcpConnection"], None]] = None
        self.on_deliver: Optional[Callable[[tuple, bool], None]] = None
        self.on_send_space: Optional[Callable[[], None]] = None
        self.on_closed: Optional[Callable[["TcpConnection"], None]] = None
        self._send_space_pending = False
        self._closed_signalled = False
        self._last_ack_sent = -1
        self._last_transmit_at = 0.0
        self._tlp_armed_probe = False
        self._pending_collapse = None

    # -- public application interface ------------------------------------

    @property
    def established(self) -> bool:
        return self.state == ESTABLISHED

    @property
    def flight_size(self) -> int:
        """Unacknowledged bytes in flight."""
        return self.snd_nxt - self.snd_una

    @property
    def unsent_backlog(self) -> int:
        """Bytes written by the application but not yet transmitted."""
        return self.send_buffer.total_written - self.snd_nxt

    def send_record(self, record) -> None:
        """Append one TLS record to the outgoing stream and push data."""
        if self.state == CLOSED:
            raise RuntimeError("send on closed connection")
        self.send_buffer.write(record)
        self._try_send()

    def close(self) -> None:
        """Signal the peer and tear the connection down immediately."""
        if self.state == CLOSED:
            return
        self._emit(self._make_segment(fin=True))
        self._teardown()

    def abort(self) -> None:
        """Tear down locally without notifying the peer."""
        self._teardown()

    # -- connection establishment ----------------------------------------

    def _start_connect(self) -> None:
        self.state = SYN_SENT
        self._send_syn()

    def _send_syn(self) -> None:
        self._syn_attempts += 1
        seg = self._make_segment(syn=True, is_ack=False)
        seg.retx_count = self._syn_attempts - 1
        self._emit(seg)
        timeout = SYN_RTO_S * (2 ** (self._syn_attempts - 1))
        self._syn_timer = self.sim.schedule(timeout, self._on_syn_timeout)

    def _on_syn_timeout(self) -> None:
        if self.state in (SYN_SENT, SYN_RCVD):
            if self._syn_attempts >= 6:
                self._teardown()
                return
            if self.state == SYN_SENT:
                self._send_syn()
            else:
                self._send_syn_ack()

    def _send_syn_ack(self) -> None:
        self._syn_attempts += 1
        seg = self._make_segment(syn=True)
        seg.retx_count = max(0, self._syn_attempts - 1)
        self._emit(seg)
        timeout = SYN_RTO_S * (2 ** (self._syn_attempts - 1))
        self._syn_timer = self.sim.schedule(timeout, self._on_syn_timeout)

    def _become_established(self) -> None:
        if self._syn_timer is not None:
            self._syn_timer.cancel()
            self._syn_timer = None
        self.state = ESTABLISHED
        if self.on_established is not None:
            callback, self.on_established = self.on_established, None
            callback(self)

    # -- segment ingress ---------------------------------------------------

    def handle_segment(self, segment: TcpSegment) -> None:
        """Entry point for every segment demuxed to this connection."""
        self.stats.segments_received += 1
        for tap in self.stack.taps:
            tap(self, "recv", segment)

        if segment.rst or segment.fin:
            self._teardown()
            return

        if segment.syn:
            self._handle_syn(segment)
            return

        if self.state == SYN_SENT:
            # Data/ACK before handshake completes: ignore.
            return
        if self.state == SYN_RCVD and segment.is_ack:
            self._become_established()
        if self.state != ESTABLISHED:
            return

        self._process_ack(segment)
        if segment.payload_len > 0:
            self.receive_buffer.on_segment(segment.seq, segment.payload_len,
                                           segment.slices)
            self._send_pure_ack(echo_retx=segment.retx_count)
        self._try_send()
        self._maybe_signal_send_space()

    def _handle_syn(self, segment: TcpSegment) -> None:
        if self.role == "server":
            # Fresh or retransmitted SYN: (re)send SYN-ACK.
            if self.state == CLOSED:
                self.state = SYN_RCVD
            if self.state == SYN_RCVD:
                self._send_syn_ack()
        else:
            # SYN-ACK from the server.
            if self.state == SYN_SENT and segment.is_ack:
                self._become_established()
                self._send_pure_ack()
                self._try_send()

    # -- ACK processing -----------------------------------------------------

    def _process_ack(self, segment: TcpSegment) -> None:
        ack = segment.ack_no
        if ack > self.snd_nxt:
            return  # Acks data we never sent; ignore.
        if ack > self.snd_una:
            self._on_new_ack(ack, echo_retx=segment.ts_echo_retx)
        elif (ack == self.snd_una and segment.payload_len == 0
              and self.flight_size > 0 and not segment.syn):
            self._on_dup_ack()

    def _on_new_ack(self, ack: int, echo_retx: int = 0) -> None:
        newly_acked = ack - self.snd_una

        # F-RTO (RFC 5682 flavour): the window collapse for a timeout is
        # deferred until the first ACK past the retransmitted segment
        # shows what really happened.  An echo of the *original*
        # transmission (echo_retx == 0) means the path was delaying, not
        # dropping: keep the window (and per Eifel response, back the
        # RTO off so we stop retransmitting into the delay).  An echo of
        # the retransmission means genuine loss: apply the collapse now.
        # Without this, a client whose GETs sit in the adversary's
        # spacing queue strangles its own window and starts coalescing
        # requests into shared segments.
        if self._pending_collapse is not None and ack > self._pending_collapse[0]:
            _, flight = self._pending_collapse
            self._pending_collapse = None
            if echo_retx == 0:
                self.rto.on_spurious_timeout()
                self.stats.spurious_retransmits_detected += 1
            else:
                self.cc.on_timeout(flight)

        # RTT sampling emulates TCP timestamps: the echo comes from the
        # transmission that *triggered* this ack, i.e. the most recently
        # sent segment the cumulative point covers.  (Classic Karn-only
        # sampling poisons SRTT after loss recovery: a cumulative jump
        # over out-of-order-buffered segments would sample the whole
        # outage as one giant RTT.)
        latest_sent = None
        sent = self._sent
        seq = self.snd_una
        while seq < ack:
            meta = sent.get(seq)
            if meta is None:
                break
            end = seq + meta.length
            if end <= ack:
                if latest_sent is None or meta.last_sent > latest_sent:
                    latest_sent = meta.last_sent
                del sent[seq]
            seq = end
        if latest_sent is not None:
            rtt = self.sim.now - latest_sent
            self.rto.on_rtt_sample(rtt if rtt > 0.0 else 0.0)

        self.snd_una = ack
        self.send_buffer.release(ack)
        self.rto.on_new_ack()
        self._dup_acks = 0
        self._tlp_armed_probe = False

        if self.cc.in_recovery:
            if ack >= self._recover_point:
                self.cc.on_recovery_exit()
            else:
                # NewReno partial ack: retransmit the next hole.
                self._retransmit(self.snd_una, reason="fast")
        else:
            self.cc.on_ack(newly_acked)
            if self.config.enable_rack and self.snd_nxt > ack:
                # Under normal ACK clocking the new head was sent ~1 RTT
                # ago; only holes left over from an outage are much
                # staler than that.  Retransmit a burst of stale
                # segments per ACK (SACK-style recovery pipelines many
                # holes per RTT instead of one per RTO).
                stale_after = max(0.25, 2.5 * self.rto.srtt)
                seq = self.snd_una
                burst = 0
                while burst < 10:
                    meta = self._sent.get(seq)
                    if meta is None:
                        break
                    if self.sim.now - meta.last_sent <= stale_after:
                        break
                    self._retransmit(seq, reason="fast")
                    seq += meta.length
                    burst += 1

        self._restart_rto_timer()
        self._try_send()
        self._maybe_signal_send_space()

    def _on_dup_ack(self) -> None:
        self.stats.dup_acks_received += 1
        self._dup_acks += 1
        if self.cc.in_recovery:
            self.cc.on_dup_ack_in_recovery()
            self._try_send()
        elif self._dup_acks == 3:
            self.cc.on_fast_retransmit(self.flight_size)
            self._recover_point = self.snd_nxt
            self._retransmit(self.snd_una, reason="fast")

    # -- transmission --------------------------------------------------------

    def _try_send(self) -> None:
        if self.state != ESTABLISHED:
            return
        # Per-segment hot path: locals and integer comparisons stand in
        # for the ``flight_size``/``unsent_backlog`` properties and
        # ``min()``, and pick the same lengths.
        now = self.sim.now
        snd_nxt = self.snd_nxt
        backlog = self.send_buffer.total_written - snd_nxt
        if (snd_nxt == self.snd_una and backlog > 0
                and now - self._last_transmit_at > self.rto.rto):
            self.cc.on_idle_restart()
        if backlog > 0:
            cwnd = self.cc.cwnd
            window = cwnd if cwnd < self.peer_rwnd else self.peer_rwnd
            mss = self.config.mss
            slice_stream = self.send_buffer.slice_stream
            sent = self._sent
            stats = self.stats
            src, dst = self.host.address, self.remote_addr
            src_port, dst_port = self.local_port, self.remote_port
            while backlog > 0:
                room = window - (snd_nxt - self.snd_una)
                if room <= 0:
                    break
                length = mss if mss < backlog else backlog
                if room < length:
                    length = room
                seq = snd_nxt
                slices = slice_stream(seq, length)
                sent[seq] = _SegmentMeta(length, slices, now, now)
                snd_nxt += length
                backlog -= length
                self.snd_nxt = snd_nxt
                self._last_transmit_at = now
                self._emit(TcpSegment(src, dst, src_port, dst_port, seq,
                                      self.receive_buffer.rcv_nxt, length,
                                      slices))
                stats.bytes_sent += length
        # Arm (do not restart) the timer: the RTO clocks the *oldest*
        # outstanding segment, so ongoing sends must not push it out.
        if self._rto_timer is None and snd_nxt > self.snd_una:
            self._restart_rto_timer()

    def _retransmit(self, seq: int, reason: str) -> None:
        meta = self._sent.get(seq)
        if meta is None:
            return
        meta.retx_count += 1
        meta.last_sent = self.sim.now
        if reason == "fast":
            self.stats.retransmits_fast += 1
        else:
            self.stats.retransmits_timeout += 1
        seg = self._make_segment(seq=seq, payload_len=meta.length,
                                 slices=meta.slices)
        seg.retx_count = meta.retx_count
        self._emit(seg)

    def _send_pure_ack(self, echo_retx: int = 0) -> None:
        ack_value = self.receive_buffer.rcv_nxt
        if ack_value == self._last_ack_sent:
            self.stats.dup_acks_sent += 1
        self._last_ack_sent = ack_value
        ack = self._make_segment()
        ack.ts_echo_retx = echo_retx
        self._emit(ack)

    def _make_segment(self, seq: int = 0, payload_len: int = 0,
                      slices: tuple = (), syn: bool = False, fin: bool = False,
                      is_ack: bool = True) -> TcpSegment:
        return TcpSegment(self.host.address, self.remote_addr,
                          self.local_port, self.remote_port,
                          seq, self.receive_buffer.rcv_nxt, payload_len,
                          slices, syn, fin, False, is_ack)

    def _emit(self, segment: TcpSegment) -> None:
        self.stats.segments_sent += 1
        for tap in self.stack.taps:
            tap(self, "send", segment)
        self.host.send_packet(Packet(self.host.address, self.remote_addr,
                                     HEADER_OVERHEAD + segment.payload_len,
                                     segment))

    # -- RTO / TLP timer ----------------------------------------------------

    def _restart_rto_timer(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None
        if self.snd_nxt <= self.snd_una or self.state != ESTABLISHED:
            return
        rto = self.rto
        srtt = rto.srtt
        if (self.config.enable_tlp and not self._tlp_armed_probe
                and not self.cc.in_recovery and srtt > 0):
            # min(max(2 * srtt, 0.01), rto) as comparisons: same float.
            pto = 2.0 * srtt
            if 0.01 > pto:
                pto = 0.01
            timeout = rto.rto
            if timeout < pto:
                pto = timeout
            self._rto_timer = self.sim.schedule(pto, self._on_tlp)
        else:
            self._rto_timer = self.sim.schedule(rto.rto, self._on_rto)

    def _on_tlp(self) -> None:
        """Probe timeout: retransmit the newest unacked segment."""
        self._rto_timer = None
        if self.flight_size <= 0 or self.state != ESTABLISHED:
            return
        newest = max(self._sent) if self._sent else None
        if newest is not None:
            self._retransmit(newest, reason="timeout")
        self._tlp_armed_probe = True
        self._restart_rto_timer()

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.flight_size <= 0 or self.state != ESTABLISHED:
            return
        if self._pending_collapse is None:
            self._pending_collapse = (self.snd_una, self.flight_size)
        self.rto.on_timeout()
        self._dup_acks = 0
        self._retransmit(self.snd_una, reason="timeout")
        self._restart_rto_timer()

    # -- delivery and teardown ----------------------------------------------

    def _deliver_to_app(self, slices: tuple, dup: bool) -> None:
        if self.on_deliver is not None:
            self.on_deliver(slices, dup)

    def _maybe_signal_send_space(self) -> None:
        if (self.on_send_space is None or self._send_space_pending
                or self.send_buffer.total_written - self.snd_nxt
                >= SEND_SPACE_WATERMARK_BYTES):
            return
        self._send_space_pending = True
        self.sim.schedule(0.0, self._fire_send_space)

    def _fire_send_space(self) -> None:
        self._send_space_pending = False
        if (self.on_send_space is not None and self.state == ESTABLISHED
                and self.unsent_backlog < SEND_SPACE_WATERMARK_BYTES):
            self.on_send_space()

    def _teardown(self) -> None:
        if self.state == CLOSED and self._closed_signalled:
            return
        self.state = CLOSED
        for timer in (self._rto_timer, self._syn_timer):
            if timer is not None:
                timer.cancel()
        self._rto_timer = None
        self._syn_timer = None
        self.stack._forget(self)
        if not self._closed_signalled:
            self._closed_signalled = True
            if self.on_closed is not None:
                self.on_closed(self)


class TcpStack:
    """Per-host TCP: demux, listeners, and connection creation."""

    def __init__(self, sim: Simulator, host: Host,
                 config: Optional[TcpConfig] = None):
        self.sim = sim
        self.host = host
        self.config = config or TcpConfig()
        self._connections: Dict[Tuple[int, str, int], TcpConnection] = {}
        self._listeners: Dict[int, Callable[[TcpConnection], None]] = {}
        self._ephemeral = itertools.count(40000)
        #: Observation taps: each ``tap(conn, direction, segment)`` fires
        #: on every segment this stack's connections emit ("send") or
        #: accept ("recv").  Subscribe with ``taps.append(fn)``; an
        #: unarmed stack loops over an empty list.  Taps only observe.
        self.taps: List[Callable[[TcpConnection, str, TcpSegment], None]] = []
        host.register_transport(self)

    def listen(self, port: int, on_accept: Callable[[TcpConnection], None]) -> None:
        """Accept connections on ``port``; ``on_accept(conn)`` fires once
        the handshake completes."""
        self._listeners[port] = on_accept

    def connect(self, remote_addr: str, remote_port: int,
                on_established: Callable[[TcpConnection], None]
                ) -> TcpConnection:
        """Open a connection; returns the (not yet established) endpoint."""
        local_port = next(self._ephemeral)
        conn = TcpConnection(self, remote_addr, local_port, remote_port,
                             self.config, role="client")
        conn.on_established = on_established
        self._connections[(local_port, remote_addr, remote_port)] = conn
        conn._start_connect()
        return conn

    def handle_packet(self, packet: Packet) -> None:
        """Host ingress: demux the TCP segment to its connection."""
        segment = packet.segment
        if not isinstance(segment, TcpSegment):
            return
        key = (segment.dst_port, segment.src, segment.src_port)
        conn = self._connections.get(key)
        if conn is None:
            if segment.syn and segment.dst_port in self._listeners:
                conn = self._accept(segment)
            else:
                return
        conn.handle_segment(segment)

    def _accept(self, syn_segment: TcpSegment) -> TcpConnection:
        conn = TcpConnection(self, syn_segment.src, syn_segment.dst_port,
                             syn_segment.src_port, self.config, role="server")
        key = (conn.local_port, conn.remote_addr, conn.remote_port)
        self._connections[key] = conn
        on_accept = self._listeners[syn_segment.dst_port]
        conn.on_established = on_accept
        return conn

    def _forget(self, conn: TcpConnection) -> None:
        key = (conn.local_port, conn.remote_addr, conn.remote_port)
        self._connections.pop(key, None)
