"""The programmable on-path device the adversary controls.

The paper's adversary is a compromised gateway that can (1) read
cleartext headers, (2) observe encrypted packet sizes, (3) delay
packets, (4) throttle the link, and (5) drop packets.  The
:class:`Middlebox` implements exactly those capabilities as an ordered
chain of :class:`Policy` objects applied per direction, plus *taps*
through which observers (the adversary's traffic monitor, trace
recorders) see every transiting packet's :class:`~repro.simnet.packet.WireView`.

Policies operate on wire views only -- the same information boundary a
real gateway has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.simnet.engine import Simulator
from repro.simnet.link import Link
from repro.simnet.packet import Packet, WireView

#: Direction constants.
CLIENT_TO_SERVER = "c2s"
SERVER_TO_CLIENT = "s2c"
DIRECTIONS = (CLIENT_TO_SERVER, SERVER_TO_CLIENT)


@dataclass
class PolicyAction:
    """Verdict of one policy on one packet."""

    drop: bool = False
    release_at: Optional[float] = None


class Policy:
    """Base class: pass everything through unchanged."""

    def process(self, view: WireView, direction: str, proposed_release: float) -> PolicyAction:
        """Return the policy's verdict.

        ``proposed_release`` is the forward time accumulated by earlier
        policies in the chain; implementations wishing to delay further
        return a later ``release_at``.
        """
        return PolicyAction()


class UniformDelayPolicy(Policy):
    """Add a constant delay to every matched packet (Section IV-A).

    The paper notes a uniform delay cannot change inter-arrival times,
    which the jitter experiments confirm against this baseline.
    """

    def __init__(self, delay_s: float, direction: Optional[str] = None,
                 match: Optional[Callable[[WireView], bool]] = None):
        self.delay_s = delay_s
        self.direction = direction
        self.match = match

    def process(self, view: WireView, direction: str, proposed_release: float) -> PolicyAction:
        if self.direction is not None and direction != self.direction:
            return PolicyAction()
        if self.match is not None and not self.match(view):
            return PolicyAction()
        return PolicyAction(release_at=proposed_release + self.delay_s)


class SpacingPolicy(Policy):
    """Enforce a minimum gap between matched packets (Section IV-B).

    This is the paper's jitter injector: hold each GET-carrying packet
    back until at least ``min_gap_s`` after the previous one was
    forwarded ("the first request can be delayed by 0 ms, second by d ms,
    the third by 2d ms, and so on").  Unmatched packets (e.g. pure ACKs)
    pass untouched, which is what lets TCP-level reordering -- and the
    fast-retransmit storm of Fig. 4 -- happen.

    The delay ramp is rebuilt per request *burst*: after
    ``reset_idle_s`` without a matched arrival the accumulated ramp is
    discarded, as a netem-style controller retunes between bursts.  A
    consequence the paper observed (Fig. 4) is faithfully reproduced:
    packets of a new burst can overtake stragglers still held from the
    previous ramp, and the resulting reordering grows with the gap
    ``d`` -- producing the duplicate-ACK -> fast-retransmit ->
    duplicate-serve cascade that intensifies multiplexing at high
    jitter (Table I).
    """

    def __init__(self, min_gap_s: float, direction: str,
                 match: Optional[Callable[[WireView], bool]] = None,
                 reset_idle_s: float = 0.25,
                 initial_gap_s: Optional[float] = None,
                 initial_count: int = 0):
        self.min_gap_s = min_gap_s
        self.direction = direction
        self.match = match if match is not None else _matches_application_data
        self.reset_idle_s = reset_idle_s
        #: Larger gap applied to the first ``initial_count`` gaps of
        #: each epoch -- the attack planner's allowance for a server
        #: whose congestion window is still recovering (the re-served
        #: HTML right after the reset needs more than the steady-state
        #: spacing).
        self.initial_gap_s = initial_gap_s
        self.initial_count = initial_count
        self._epoch_gaps = 0
        self._last_release: Optional[float] = None
        self._last_arrival: Optional[float] = None
        self.held_packets = 0
        self.epochs = 0

    def process(self, view: WireView, direction: str, proposed_release: float) -> PolicyAction:
        if direction != self.direction or not self.match(view):
            return PolicyAction()
        now = proposed_release
        # A new epoch starts only when the hold queue has fully drained
        # AND the burst went quiet -- a shaper cannot "reset" while
        # packets are still queued inside it.
        if (self._last_arrival is None
                or (now - self._last_arrival > self.reset_idle_s
                    and (self._last_release is None or now >= self._last_release))):
            self._last_release = None
            self._epoch_gaps = 0
            self.epochs += 1
        self._last_arrival = now
        release = proposed_release
        if self._last_release is not None:
            gap = self.min_gap_s
            if (self.initial_gap_s is not None
                    and self._epoch_gaps < self.initial_count):
                gap = max(gap, self.initial_gap_s)
            self._epoch_gaps += 1
            spaced = self._last_release + gap
            if spaced > release:
                release = spaced
                self.held_packets += 1
        self._last_release = release
        return PolicyAction(release_at=release)


class NetemJitterPolicy(Policy):
    """Independent per-packet random delay on matched packets.

    This is ``tc netem delay <d>`` with variation, the tool the paper's
    network controller drives: each matched packet is delayed by an
    independent draw from ``U(d*(1-frac), d*(1+frac))``.  Because draws
    are independent, packets sent close together reorder freely, and
    the reorder *depth* grows with ``d`` -- the mechanism behind the
    paper's rising retransmission counts (Table I): deep holes at the
    receiver produce duplicate-ACK runs, fast retransmits of GETs, and
    the duplicate object serves of Fig. 4.
    """

    def __init__(self, sim: Simulator, mean_delay_s: float, direction: str,
                 frac: float = 0.5,
                 match: Optional[Callable[[WireView], bool]] = None,
                 stream_name: str = "policy:netem-jitter"):
        if not 0.0 <= frac <= 1.0:
            raise ValueError("frac must be in [0, 1]")
        self.mean_delay_s = mean_delay_s
        self.direction = direction
        self.frac = frac
        self.match = match if match is not None else _matches_application_data
        self._rng = sim.rng(stream_name)
        self.delayed_packets = 0

    def process(self, view: WireView, direction: str, proposed_release: float) -> PolicyAction:
        if direction != self.direction or not self.match(view):
            return PolicyAction()
        low = self.mean_delay_s * (1.0 - self.frac)
        high = self.mean_delay_s * (1.0 + self.frac)
        self.delayed_packets += 1
        return PolicyAction(release_at=proposed_release
                            + self._rng.uniform(low, high))


class TokenBucketPolicy(Policy):
    """Rate-limit matched traffic to ``rate_bps`` (Section IV-C).

    Implemented as a virtual queue: each packet's release time is pushed
    behind the previous one by its serialization time at the throttled
    rate.  Packets whose queueing delay would exceed ``max_backlog_s``
    are dropped, mimicking a shaper's finite buffer.  The paper applies
    the limit to both directions; pass ``direction=None`` for that.
    """

    def __init__(self, rate_bps: float, direction: Optional[str] = None,
                 max_backlog_s: float = 0.5):
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.rate_bps = rate_bps
        self.direction = direction
        self.max_backlog_s = max_backlog_s
        self._virtual_queue = {d: 0.0 for d in DIRECTIONS}
        self.dropped = 0

    def process(self, view: WireView, direction: str, proposed_release: float) -> PolicyAction:
        if self.direction is not None and direction != self.direction:
            return PolicyAction()
        vq = max(proposed_release, self._virtual_queue[direction])
        release = vq + view.size * 8.0 / self.rate_bps
        if release - proposed_release > self.max_backlog_s:
            self.dropped += 1
            return PolicyAction(drop=True)
        self._virtual_queue[direction] = release
        return PolicyAction(release_at=release)


class WindowedDropPolicy(Policy):
    """Drop matched packets with probability ``rate`` inside a time window
    (Section IV-D's targeted packet drops).

    The adversary uses this on the server-to-client path, matching TLS
    application-data packets, to mimic a lossy network until the client
    sends ``RST_STREAM``.
    """

    def __init__(self, sim: Simulator, rate: float, direction: str,
                 start_at: float, end_at: float,
                 match: Optional[Callable[[WireView], bool]] = None,
                 stream_name: str = "policy:windowed-drop"):
        self.rate = rate
        self.direction = direction
        self.start_at = start_at
        self.end_at = end_at
        self.match = match if match is not None else _matches_application_data
        self._rng = sim.rng(stream_name)
        self.dropped = 0

    def active(self, now: float) -> bool:
        """True when the drop window covers ``now``."""
        return self.start_at <= now < self.end_at

    def process(self, view: WireView, direction: str, proposed_release: float) -> PolicyAction:
        if direction != self.direction or not self.active(proposed_release):
            return PolicyAction()
        if not self.match(view):
            return PolicyAction()
        if self._rng.random() < self.rate:
            self.dropped += 1
            return PolicyAction(drop=True)
        return PolicyAction()


def _matches_application_data(view: WireView) -> bool:
    return view.has_application_data


@dataclass
class MiddleboxStats:
    """Per-direction forwarding counters."""

    forwarded: int = 0
    dropped: int = 0
    dropped_failed: int = 0


class Middlebox:
    """A two-port forwarding device with a policy chain and taps."""

    def __init__(self, sim: Simulator, name: str = "middlebox"):
        self.sim = sim
        self.name = name
        self._policies: List[Policy] = []
        #: Observation taps: each ``tap(now, direction, view, dropped)``
        #: fires for every packet the device forwards or drops.
        #: Subscribe with ``taps.append(fn)``.  Taps only observe.
        self.taps: List[Callable] = []
        self._out = {}  # direction -> Link
        self._failed = False
        self._saved_policies: List[Policy] = []
        self.crashes = 0
        self.stats = {d: MiddleboxStats() for d in DIRECTIONS}

    # -- wiring ---------------------------------------------------------

    def attach(self, direction: str, in_link: Link, out_link: Link) -> None:
        """Wire one direction: packets from ``in_link`` forward on ``out_link``."""
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        self._out[direction] = out_link
        in_link.attach(lambda pkt, d=direction: self._on_packet(pkt, d))

    # -- policy management (the adversary's control surface) -------------

    def add_policy(self, policy: Policy) -> Policy:
        """Append a policy to the chain and return it."""
        self._policies.append(policy)
        return policy

    def remove_policy(self, policy: Policy) -> None:
        """Remove a policy; missing policies are ignored."""
        try:
            self._policies.remove(policy)
        except ValueError:
            pass

    def clear_policies(self) -> None:
        """Drop the whole chain (restore neutral forwarding)."""
        self._policies.clear()

    @property
    def policies(self) -> tuple:
        return tuple(self._policies)

    # -- crash / restart (fault injection) --------------------------------

    @property
    def failed(self) -> bool:
        """True while the device is down (crashed, not yet restarted)."""
        return self._failed

    def fail(self) -> None:
        """Crash the device: the policy chain drops out and every packet
        offered while down is lost (the gateway *is* the path).
        Idempotent."""
        if self._failed:
            return
        self._failed = True
        self.crashes += 1
        self._saved_policies = list(self._policies)
        self._policies.clear()

    def recover(self) -> None:
        """Restart the device: forwarding resumes and the policy chain
        saved at crash time re-attaches (with its pre-crash internal
        state -- the adversary's controller re-installs from its own
        copy, it does not rebuild the policies).  Idempotent."""
        if not self._failed:
            return
        self._failed = False
        self._policies.extend(self._saved_policies)
        self._saved_policies = []

    # -- forwarding -------------------------------------------------------

    def _on_packet(self, packet: Packet, direction: str) -> None:
        now = self.sim.now
        view = packet.wire_view()
        if self._failed:
            # A dead device neither forwards nor observes: taps (the
            # adversary's monitor, the trace recorder) run *on* the
            # middlebox and therefore see nothing while it is down.
            self.stats[direction].dropped += 1
            self.stats[direction].dropped_failed += 1
            return
        release = now
        dropped = False
        for policy in self._policies:
            action = policy.process(view, direction, release)
            if action.drop:
                dropped = True
                break
            if action.release_at is not None and action.release_at > release:
                release = action.release_at

        for tap in self.taps:
            tap(now, direction, view, dropped)

        if dropped:
            self.stats[direction].dropped += 1
            return
        self.stats[direction].forwarded += 1
        out_link = self._out.get(direction)
        if out_link is None:
            raise RuntimeError(f"middlebox {self.name}: no egress for {direction}")
        if release <= now:
            out_link.send(packet)
        else:
            self.sim.schedule_at(release, out_link.send, packet)
