"""Real-time slow-HTTP/2 DoS detection over passive taps.

The :class:`DosDetector` subscribes to two observation points the
stack already exposes -- the server's per-frame ``taps`` and its TCP
stack's per-segment ``taps`` -- beside any other observer (the
invariant monitors), and classifies traffic *in simulated time* into
the attack taxonomy of :mod:`repro.attacks.spec`, emitting one
``domain="dos"`` :class:`~repro.invariants.violations.Violation` per
(connection, code).

Design rules (docs/DOS.md):

* **Passive**: the detector never schedules simulator events and never
  draws randomness, so an instrumented run is byte-identical to a bare
  one (taps only observe).
* **Event-driven sweeps**: slow rules (preamble, dangling headers, body
  trickle) are evaluated every ``sweep_every_events`` observed events
  rather than on a timer; :meth:`finalize` runs one last sweep so
  quiet endings cannot hide a slow attack.
* **Rate rules fire inline**: flood rules (PING / SETTINGS / RST churn)
  are pure per-second counters checked as frames arrive.
* **Thresholds sit below hardening budgets**: every detector threshold
  is deliberately tighter than the corresponding
  :class:`~repro.http2.server.Http2ServerConfig` hardening knob, so a
  hardened server still *detects* before it shields (the taps stop
  seeing frames once the server sheds a connection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.http2 import frames as fr
from repro.invariants.violations import Violation

#: Bound on distinct connections tracked (DoS-safe bookkeeping).
_MAX_TRACKS = 1024

#: Bound on per-connection request streams tracked.
_MAX_STREAMS_TRACKED = 4096


@dataclass(frozen=True)
class DosDetectorConfig:
    """Detection thresholds.

    Defaults are tuned to sit *below* the reference hardened-server
    budgets in :mod:`repro.experiments.dos_eval` and *above* anything
    the legitimate client does (it always sends ``END_STREAM`` on
    request HEADERS, completes TLS+SETTINGS within ~1.2 s even on a
    slow access link, and caps retry resets at 3 per load).
    """

    #: Seconds a connection may exist without a client SETTINGS before
    #: it reads as a slow-preamble attack.
    preamble_threshold_s: float = 2.0
    #: Seconds a request stream may dangle (END_STREAM unseen, zero
    #: body bytes) before it counts toward the slow-headers rule.
    dangling_threshold_s: float = 2.5
    #: Dangling / trickling streams required before a connection is
    #: flagged (a legitimate client dangles none).
    dangling_min_streams: int = 8
    #: Body DATA frames per stream before the trickle rule can fire.
    trickle_min_frames: int = 2
    #: Mean body bytes per DATA frame at or below which a stream's
    #: body counts as a trickle.
    trickle_max_bytes: int = 64
    #: Per-connection received non-ack PING budget per second.
    ping_rate_per_s: float = 20.0
    #: Per-connection received non-ack SETTINGS budget per second.
    settings_rate_per_s: float = 10.0
    #: Per-connection received RST_STREAM budget per second.
    reset_rate_per_s: float = 20.0
    #: Observed events between slow-rule sweeps.
    sweep_every_events: int = 32
    #: Hard cap on emitted violations.
    max_flags: int = 256

    def validate(self) -> None:
        for name in ("preamble_threshold_s", "dangling_threshold_s",
                     "dangling_min_streams", "trickle_min_frames",
                     "trickle_max_bytes", "ping_rate_per_s",
                     "settings_rate_per_s", "reset_rate_per_s",
                     "sweep_every_events", "max_flags"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"DosDetectorConfig.{name} must be > 0, "
                                 f"got {value}")


class _ConnTrack:
    """Per-connection observation state, keyed by the TCP connection."""

    __slots__ = ("seq", "tcp_conn", "first_seen_s", "settings_seen",
                 "open_requests", "body_frames", "rates", "flagged")

    def __init__(self, seq: int, tcp_conn, first_seen_s: float):
        self.seq = seq
        self.tcp_conn = tcp_conn
        self.first_seen_s = first_seen_s
        #: True once a client (non-ack) SETTINGS was seen: the HTTP/2
        #: preamble completed.
        self.settings_seen = False
        #: ``stream_id -> opened_at_s`` for requests announcing a body.
        self.open_requests: Dict[int, float] = {}
        #: ``stream_id -> [data_frames, body_bytes]``.
        self.body_frames: Dict[int, List] = {}
        #: ``key -> [window_start_s, count]`` per-second rate windows.
        self.rates: Dict[str, List] = {}
        #: Codes already flagged for this connection (one flag each).
        self.flagged: set = set()


class DosDetector:
    """Classify server-side traffic into the slow-DoS taxonomy."""

    def __init__(self, clock, config: Optional[DosDetectorConfig] = None):
        self.clock = clock
        self.config = config or DosDetectorConfig()
        self.config.validate()
        #: Emitted ``domain="dos"`` violations, oldest first.
        self.flags: List[Violation] = []
        #: Observed tap events (segments + frames, both directions).
        self.events = 0
        self._tracks: Dict[int, _ConnTrack] = {}
        self._next_seq = 0

    # -- wiring --------------------------------------------------------------

    def attach(self, server) -> None:
        """Subscribe this detector's taps on ``server``.  The server's
        connections share its tap list, so connections accepted before
        the attach are observed from their next frame on."""
        server.taps.append(self.on_frame)
        server.tcp.taps.append(self.on_segment)

    # -- observation taps ----------------------------------------------------

    def on_segment(self, tcp_conn, direction: str, segment) -> None:
        """TCP-level tap: which connections exist and are still active."""
        self._track(tcp_conn)
        self._bump()

    def on_frame(self, h2_conn, direction: str, frame, dup: bool) -> None:
        """HTTP/2-level tap on the server's connections."""
        track = self._track(h2_conn.tls.conn)
        if track is not None and direction == "recv" and not dup:
            # A server-*sent* RST does not clear a tracked request: a
            # stream the server had to kill stays suspicious, and a
            # hardened server must still detect what it shed.
            self._observe_recv(track, frame)
        self._bump()

    def finalize(self, now: Optional[float] = None) -> None:
        """Run a final sweep so a quiet tail cannot hide a slow attack."""
        self._sweep(self.clock.now if now is None else now)

    # -- results -------------------------------------------------------------

    @property
    def detected(self) -> bool:
        return bool(self.flags)

    @property
    def first_flag_at(self) -> Optional[float]:
        return self.flags[0].at_s if self.flags else None

    def codes(self) -> List[str]:
        """Distinct flagged codes, in first-flag order."""
        seen: List[str] = []
        for violation in self.flags:
            if violation.code not in seen:
                seen.append(violation.code)
        return seen

    # -- internals -----------------------------------------------------------

    def _track(self, tcp_conn) -> Optional[_ConnTrack]:
        key = id(tcp_conn)
        track = self._tracks.get(key)
        if track is None:
            if len(self._tracks) >= _MAX_TRACKS:  # bound tracked state
                return None
            track = _ConnTrack(self._next_seq, tcp_conn, self.clock.now)
            self._next_seq += 1
            self._tracks[key] = track
        return track

    def _observe_recv(self, track: _ConnTrack, frame) -> None:
        config = self.config
        if isinstance(frame, fr.SettingsFrame):
            if not frame.ack:
                track.settings_seen = True
                self._rate(track, "settings", config.settings_rate_per_s,
                           "DOS_SETTINGS_FLOOD")
        elif isinstance(frame, fr.PingFrame):
            if not frame.ack:
                self._rate(track, "ping", config.ping_rate_per_s,
                           "DOS_PING_FLOOD")
        elif isinstance(frame, fr.RstStreamFrame):
            track.open_requests.pop(frame.stream_id, None)
            track.body_frames.pop(frame.stream_id, None)
            self._rate(track, "reset", config.reset_rate_per_s,
                       "DOS_RESET_CHURN")
        elif isinstance(frame, fr.HeadersFrame):
            # Client request announcing a body (END_STREAM unset) --
            # the legitimate client never does this.
            if (frame.stream_id % 2 == 1 and not frame.end_stream
                    and len(track.open_requests) < _MAX_STREAMS_TRACKED):
                track.open_requests[frame.stream_id] = self.clock.now
        elif isinstance(frame, fr.DataFrame):
            if frame.stream_id in track.open_requests:
                entry = track.body_frames.setdefault(frame.stream_id, [0, 0])
                entry[0] += 1
                entry[1] += frame.length
                if frame.end_stream:
                    track.open_requests.pop(frame.stream_id, None)
                    track.body_frames.pop(frame.stream_id, None)

    def _rate(self, track: _ConnTrack, key: str, per_s: float,
              code: str) -> None:
        now = self.clock.now
        window = track.rates.get(key)
        if window is None or now - window[0] >= 1.0:
            track.rates[key] = [now, 1]
            return
        window[1] += 1
        if window[1] > per_s:
            self._flag(track, code,
                       f"{key} rate {window[1]}/s exceeds {per_s:g}/s")

    def _bump(self) -> None:
        self.events += 1
        if self.events % self.config.sweep_every_events == 0:
            self._sweep(self.clock.now)

    def _sweep(self, now: float) -> None:
        config = self.config
        for track in self._tracks.values():
            if (not track.settings_seen
                    and now - track.first_seen_s
                    > config.preamble_threshold_s):
                self._flag(track, "DOS_SLOW_PREAMBLE",
                           f"no HTTP/2 preamble "
                           f"{now - track.first_seen_s:.2f}s after accept")
                continue
            dangling = 0
            trickling = 0
            for stream_id, opened_at in track.open_requests.items():
                body = track.body_frames.get(stream_id)
                if body is None:
                    if now - opened_at > config.dangling_threshold_s:
                        dangling += 1
                elif (body[0] >= config.trickle_min_frames
                      and body[1] <= body[0] * config.trickle_max_bytes):
                    trickling += 1
            if dangling >= config.dangling_min_streams:
                self._flag(track, "DOS_SLOW_HEADERS",
                           f"{dangling} request streams dangling > "
                           f"{config.dangling_threshold_s:g}s with no body")
            if trickling >= config.dangling_min_streams:
                self._flag(track, "DOS_SLOW_POST",
                           f"{trickling} request bodies trickling <= "
                           f"{config.trickle_max_bytes}B/frame")

    def _flag(self, track: _ConnTrack, code: str, message: str) -> None:
        if code in track.flagged:
            return
        if len(self.flags) >= self.config.max_flags:  # bound emissions
            return
        track.flagged.add(code)
        self.flags.append(Violation(
            code=code, domain="dos", at_s=self.clock.now,
            where=f"conn#{track.seq}", message=message))


__all__ = ["DosDetector", "DosDetectorConfig"]
