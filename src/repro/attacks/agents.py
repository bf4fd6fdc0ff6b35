"""Seeded slow-DoS agents driving real TCP/TLS/HTTP/2 state machines.

Each agent turns one :class:`~repro.attacks.spec.AttackSpec` into
deterministic simulator behaviour: it dials through a *shared*
:class:`~repro.tcp.connection.TcpStack` (a host carries a single
transport, so the attacker rides the same stack as the legitimate
client, on distinct ephemeral ports), performs the real TLS handshake
where the kind requires one, and then misbehaves exactly as described
in :data:`~repro.attacks.spec.ATTACK_KINDS`.

Agents are pure clients: they never touch server internals, and all
their randomness comes from one named simulator stream
(``attack:<kind>``), so a cell is a pure function of its seed and spec.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.attacks.spec import AttackSpec
from repro.http2 import frames as fr
from repro.http2.connection import Http2Connection
from repro.http2.errors import ErrorCode
from repro.http2.settings import SETTINGS_MAX_HEADER_LIST_SIZE
from repro.tls.session import TlsSession

#: Wire size charged for an attacker's HPACK-encoded request block
#: (method/scheme/authority/path on first use; the exact figure only
#: shapes byte counts, not behaviour).
_REQUEST_BLOCK_LEN = 56

#: Hard cap on connections an agent will ever track -- bounds re-dial
#: growth no matter what the spec asks for.
_MAX_CONNS_TRACKED = 64


class AttackConnection(Http2Connection):
    """Attacker's side of an HTTP/2 connection: ignores every response.

    The attacker allocates odd stream ids like a real client but never
    reacts to server frames -- dangling state is the point.
    """

    def __init__(self, sim, tls: TlsSession):
        super().__init__(sim, tls, [])  # the attacker's side is untapped
        self.next_stream_id = 1
        #: Stream ids this connection opened (slow kinds trickle on them).
        self.attack_streams: List[int] = []

    def allocate_stream_id(self) -> int:
        stream_id = self.next_stream_id
        self.next_stream_id += 2
        return stream_id

    def handle_headers(self, frame: fr.HeadersFrame, dup: bool) -> None:
        return None

    def handle_data(self, frame: fr.DataFrame, dup: bool) -> None:
        return None

    def handle_rst_stream(self, frame: fr.RstStreamFrame) -> None:
        return None


class AttackAgent:
    """Base agent: dials ``spec.connections`` when the spec starts."""

    def __init__(self, sim, stack, spec: AttackSpec,
                 server_addr: str = "server", port: int = 443):
        spec.validate()
        self.sim = sim
        self.stack = stack
        self.spec = spec
        self.server_addr = server_addr
        self.port = port
        self.rng = sim.rng(f"attack:{spec.kind}")
        self.dials = 0
        self.frames_sent = 0
        self.streams_opened = 0
        self._started = False

    @property
    def expired(self) -> bool:
        """True once the spec's pressure window has passed."""
        return self.sim.now >= self.spec.ends_at_s

    def start(self) -> None:
        """Arm the agent; it dials at ``spec.start_s``.  Idempotent."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.spec.start_s, self._launch)

    def _launch(self) -> None:
        for index in range(self.spec.connections):
            # Stagger dials a hair so SYNs do not phase-lock.
            self.sim.schedule(index * 0.002 + self.rng.uniform(0.0, 0.001),
                              self._dial)

    def _dial(self) -> None:
        raise NotImplementedError


class SlowPreambleAgent(AttackAgent):
    """Dial TCP, never speak TLS: every connection parks an accept slot.

    A sweep every ``pace_s`` re-dials connections the server managed to
    kill, keeping the pressure constant for ``duration_s``.
    """

    def __init__(self, sim, stack, spec, server_addr="server", port=443):
        super().__init__(sim, stack, spec, server_addr, port)
        self.conns: List = []
        self._sweeping = False

    def _dial(self) -> None:
        if len(self.conns) >= min(self.spec.connections, _MAX_CONNS_TRACKED):
            return
        self.dials += 1
        self.conns.append(self.stack.connect(self.server_addr, self.port,
                                             self._on_established))
        if not self._sweeping:
            self._sweeping = True
            self.sim.schedule(self.spec.pace_s, self._sweep)

    def _on_established(self, conn) -> None:
        return None  # the whole attack is the silence after the handshake

    def _sweep(self) -> None:
        if self.expired:
            return
        for index, conn in enumerate(self.conns):
            if conn.state == "closed":
                self.dials += 1
                self.conns[index] = self.stack.connect(
                    self.server_addr, self.port, self._on_established)
        self.sim.schedule(self.spec.pace_s, self._sweep)


class _Http2AttackAgent(AttackAgent):
    """Shared TCP+TLS+HTTP/2 bring-up for the protocol-level kinds."""

    def __init__(self, sim, stack, spec, server_addr="server", port=443):
        super().__init__(sim, stack, spec, server_addr, port)
        self.conns: List[AttackConnection] = []

    def _dial(self) -> None:
        self.dials += 1
        self.stack.connect(self.server_addr, self.port,
                           self._on_tcp_established)

    def _on_tcp_established(self, conn) -> None:
        if len(self.conns) >= _MAX_CONNS_TRACKED:  # bound tracked state
            return
        tls = TlsSession(conn, role="client")
        h2 = AttackConnection(self.sim, tls)
        h2.on_ready = partial(self._begin, h2)
        self.conns.append(h2)

    def _usable(self, h2: AttackConnection) -> bool:
        return (not h2.goaway_received
                and h2.tls.conn.state != "closed"
                and not self.expired)

    def _request_headers(self) -> dict:
        return {":method": "GET", ":scheme": "https",
                ":path": self.spec.target_path}

    def _open_stream(self, h2: AttackConnection,
                     end_stream: bool) -> Optional[fr.HeadersFrame]:
        if len(h2.attack_streams) >= 4096:  # bound per-conn stream state
            return None
        stream_id = h2.allocate_stream_id()
        h2.attack_streams.append(stream_id)
        self.streams_opened += 1
        return fr.HeadersFrame(stream_id=stream_id,
                               headers=self._request_headers(),
                               header_block_len=_REQUEST_BLOCK_LEN,
                               end_stream=end_stream)

    def _begin(self, h2: AttackConnection) -> None:
        raise NotImplementedError


class SlowHeadersAgent(_Http2AttackAgent):
    """Open ``streams`` requests announcing bodies that never come."""

    @property
    def open_gap_s(self) -> float:
        """Spacing between stream opens (``pace_s`` for this kind)."""
        return self.spec.pace_s

    def _begin(self, h2: AttackConnection) -> None:
        self._open_next(h2)

    def _open_next(self, h2: AttackConnection) -> None:
        if not self._usable(h2) or len(h2.attack_streams) >= self.spec.streams:
            return
        frame = self._open_stream(h2, end_stream=False)
        if frame is None:
            return
        h2.send_frame(frame)
        self.frames_sent += 1
        self.sim.schedule(self.open_gap_s, self._open_next, h2)


class SlowPostAgent(SlowHeadersAgent):
    """Slow headers plus a one-byte body trickle per ``pace_s``.

    The trickle keeps every stream looking alive to a first-byte
    timeout; only body-progress accounting catches it.
    """

    #: Streams open at burst pace -- ``pace_s`` is the *trickle*
    #: cadence for this kind (see :class:`AttackSpec`).
    _OPEN_GAP_S = 0.02

    @property
    def open_gap_s(self) -> float:
        return min(self.spec.pace_s, self._OPEN_GAP_S)

    def _begin(self, h2: AttackConnection) -> None:
        self._open_next(h2)
        self.sim.schedule(self.spec.pace_s, self._trickle, h2)

    def _trickle(self, h2: AttackConnection) -> None:
        if not self._usable(h2):
            return
        for stream_id in h2.attack_streams:
            if h2.can_send_data(stream_id, 1):
                h2.send_data_frame(fr.DataFrame(stream_id=stream_id,
                                                length=1))
                self.frames_sent += 1
        self.sim.schedule(self.spec.pace_s, self._trickle, h2)


class PingFloodAgent(_Http2AttackAgent):
    """PING at ``rate_per_s``; the mandatory inline ack doubles the
    frame-processing load."""

    def _begin(self, h2: AttackConnection) -> None:
        self._flood(h2)

    def _flood(self, h2: AttackConnection) -> None:
        if not self._usable(h2):
            return
        h2.send_frame(fr.PingFrame())
        self.frames_sent += 1
        self.sim.schedule(1.0 / self.spec.rate_per_s, self._flood, h2)


class SettingsFloodAgent(_Http2AttackAgent):
    """Non-ack SETTINGS at ``rate_per_s``; each forces a re-parse and a
    SETTINGS ack."""

    def _begin(self, h2: AttackConnection) -> None:
        self._flood(h2)

    def _flood(self, h2: AttackConnection) -> None:
        if not self._usable(h2):
            return
        h2.send_frame(fr.SettingsFrame(
            settings={SETTINGS_MAX_HEADER_LIST_SIZE: 65_536}))
        self.frames_sent += 1
        self.sim.schedule(1.0 / self.spec.rate_per_s, self._flood, h2)


class StreamResetChurnAgent(_Http2AttackAgent):
    """Open a stream and reset it in the same TLS record (rapid reset)."""

    def _begin(self, h2: AttackConnection) -> None:
        self._churn(h2)

    def _churn(self, h2: AttackConnection) -> None:
        if not self._usable(h2):
            return
        frame = self._open_stream(h2, end_stream=True)
        if frame is None:
            return
        reset = fr.RstStreamFrame(stream_id=frame.stream_id,
                                  error_code=int(ErrorCode.CANCEL))
        h2._send_record([frame, reset])
        self.frames_sent += 2
        # Opened-and-reset streams do not accumulate live state; drop
        # them from the tracking list so the 4096 bound never trips.
        h2.attack_streams.pop()
        self.sim.schedule(1.0 / self.spec.rate_per_s, self._churn, h2)


_AGENT_CLASSES = {
    "slow_preamble": SlowPreambleAgent,
    "slow_headers": SlowHeadersAgent,
    "slow_post": SlowPostAgent,
    "ping_flood": PingFloodAgent,
    "settings_flood": SettingsFloodAgent,
    "stream_reset_churn": StreamResetChurnAgent,
}


def make_agent(sim, stack, spec, server_addr: str = "server",
               port: int = 443) -> AttackAgent:
    """Build the agent class for ``spec.kind`` (spec or JSON-able dict)."""
    spec = AttackSpec.coerce(spec)
    if spec is None:
        raise ValueError("make_agent() requires a spec, got None")
    return _AGENT_CLASSES[spec.kind](sim, stack, spec,
                                     server_addr=server_addr, port=port)
