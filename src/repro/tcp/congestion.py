"""Reno congestion control.

Implements the three mechanisms whose interaction the paper leans on:

* **slow start / congestion avoidance** -- determines object drain time,
  and therefore whether a spaced-out GET arrives after the previous
  object finished;
* **fast retransmit / fast recovery** -- triggered by the reordering the
  adversary's jitter creates, producing the retransmission storm of
  Table I;
* **timeout response** -- cwnd collapse plus RTO backoff, which after the
  adversary's drop burst gives the server a quiet window to serve the
  re-requested object alone (Section IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CongestionStats:
    """Counters for congestion-control events."""

    fast_retransmits: int = 0
    timeouts: int = 0
    recoveries_completed: int = 0


class RenoCongestionControl:
    """Byte-counted TCP Reno."""

    def __init__(self, mss: int, init_cwnd_segments: int = 10,
                 cwnd_cap_bytes: int = 1 << 20,
                 initial_ssthresh: int = 0):
        self.mss = mss
        self.initial_cwnd = mss * init_cwnd_segments
        self.cwnd = self.initial_cwnd
        # Real stacks seed ssthresh from cached path metrics
        # (tcp_metrics); 0 means "no history" (slow start to the cap).
        self.ssthresh = initial_ssthresh if initial_ssthresh > 0 else cwnd_cap_bytes
        self.cwnd_cap = cwnd_cap_bytes
        self.in_recovery = False
        self.stats = CongestionStats()

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh and not self.in_recovery

    def on_ack(self, newly_acked: int) -> None:
        """New cumulative data acknowledged outside recovery."""
        if newly_acked <= 0:
            return
        if self.in_slow_start:
            self.cwnd += min(newly_acked, self.mss)
        else:
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)
        self.cwnd = min(self.cwnd, self.cwnd_cap)

    def on_fast_retransmit(self, flight_size: int) -> None:
        """Third duplicate ACK: halve and enter fast recovery."""
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self.in_recovery = True
        self.stats.fast_retransmits += 1

    def on_dup_ack_in_recovery(self) -> None:
        """Window inflation for each further duplicate ACK."""
        if self.in_recovery:
            self.cwnd = min(self.cwnd + self.mss, self.cwnd_cap)

    def on_recovery_exit(self) -> None:
        """ACK covering the recovery point: deflate to ssthresh."""
        if self.in_recovery:
            self.in_recovery = False
            self.cwnd = self.ssthresh
            self.stats.recoveries_completed += 1

    def on_idle_restart(self) -> None:
        """Congestion window validation (RFC 2861, simplified).

        After an idle period the ACK clock is gone, so the sender may
        not blast a stale, large window; it restarts from the initial
        window.  This collapse is what keeps post-idle page bursts
        (the aux objects after the 500 ms think time, the emblem images
        after JS execution) window-limited -- the regime in which
        HTTP/2 round-robin scheduling visibly interleaves objects.
        """
        self.cwnd = min(self.cwnd, self.initial_cwnd)
        self.in_recovery = False

    def on_timeout(self, flight_size: int) -> None:
        """RTO fired: collapse to one segment, re-enter slow start."""
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.in_recovery = False
        self.stats.timeouts += 1
