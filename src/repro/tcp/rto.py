"""Retransmission-timeout estimation (Jacobson/Karn, RFC 6298 shape).

The RTO is central to two of the paper's observations: the adversary's
spacing queue holds GET requests past the client's RTO, producing
spurious retransmissions (Table I), and bandwidth throttling inflates
measured RTTs, raising the RTO and damping those retransmissions
(Fig. 5).  After loss-triggered timeouts the exponential backoff is what
gives the server a quiet, serialized window post-reset (Section IV-D).
"""

from __future__ import annotations


class RtoEstimator:
    """SRTT/RTTVAR tracker with exponential backoff."""

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0

    def __init__(self, min_rto: float = 0.2, max_rto: float = 60.0,
                 initial_rto: float = 1.0, backoff_cap: int = 16):
        self.min_rto = min_rto
        self.max_rto = max_rto
        #: Cap on the exponential backoff multiplier.  Modern stacks
        #: (tail-loss probes, RACK) keep probing a dead-looking path far
        #: more aggressively than textbook exponential backoff; without a
        #: cap, a 6-second 80% drop burst leaves the next retransmission
        #: ~14 s out and nothing ever recovers.
        self.backoff_cap = backoff_cap
        self.srtt: float = 0.0
        self.rttvar: float = 0.0
        self._have_sample = False
        self._base_rto = initial_rto
        self._backoff = 1

    def on_rtt_sample(self, rtt: float) -> None:
        """Fold in an RTT sample from a never-retransmitted segment (Karn)."""
        if rtt < 0:
            raise ValueError("negative RTT sample")
        if not self._have_sample:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
            self._have_sample = True
        else:
            err = abs(self.srtt - rtt)
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * err
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        self._base_rto = self._clamp(self.srtt + max(4 * self.rttvar, 0.001))

    def on_timeout(self) -> None:
        """Exponential backoff after an expiry."""
        self._backoff = min(self._backoff * 2, self.backoff_cap)

    def on_spurious_timeout(self) -> None:
        """Eifel response (RFC 4015): the path is delaying, not losing --
        grow the base RTO so we stop retransmitting into the delay.
        This is the paper's observation that after the reset "the
        client's TCP also increases the timeout"."""
        self._base_rto = self._clamp(self._base_rto * 2.0)

    def on_new_ack(self) -> None:
        """Progress resets the backoff multiplier."""
        self._backoff = 1

    @property
    def rto(self) -> float:
        """Current timeout value in seconds."""
        # ``_clamp`` inlined: this is read on every RTO restart.
        value = self._base_rto * self._backoff
        max_rto = self.max_rto
        if not value < max_rto:
            value = max_rto
        min_rto = self.min_rto
        return value if value > min_rto else min_rto

    def _clamp(self, value: float) -> float:
        # Comparisons that pick the same float as
        # ``max(min_rto, min(max_rto, value))``.
        max_rto = self.max_rto
        if not value < max_rto:
            value = max_rto
        min_rto = self.min_rto
        return value if value > min_rto else min_rto
