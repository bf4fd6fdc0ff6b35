"""The adversary's network controller.

The paper drives ``tc netem``-style knobs from bash; here the same three
capabilities are policies installed on the compromised middlebox:

* request spacing ("jitter", Section IV-B),
* bandwidth throttling (Section IV-C),
* windowed targeted drops of application packets (Section IV-D).

Each setter replaces any previous policy of its kind, so the attack
phases can retune on the fly.
"""

from __future__ import annotations

from typing import Optional

from repro.core.wire import carries_application_data, carries_request_any
from repro.simnet.middlebox import (
    CLIENT_TO_SERVER,
    SERVER_TO_CLIENT,
    Middlebox,
    NetemJitterPolicy,
    SpacingPolicy,
    TokenBucketPolicy,
    UniformDelayPolicy,
    WindowedDropPolicy,
)


class NetworkController:
    """Programmatic control surface over the compromised gateway."""

    def __init__(self, sim, middlebox: Middlebox):
        self.sim = sim
        self.middlebox = middlebox
        self._spacing: Optional[SpacingPolicy] = None
        self._netem: Optional[NetemJitterPolicy] = None
        self._throttle: Optional[TokenBucketPolicy] = None
        self._drop: Optional[WindowedDropPolicy] = None
        self._delay: Optional[UniformDelayPolicy] = None

    # -- jitter / spacing ---------------------------------------------------

    def set_request_spacing(self, gap_s: float,
                            initial_gap_s: Optional[float] = None,
                            initial_count: int = 0,
                            hold_first_until: Optional[float] = None,
                            ) -> SpacingPolicy:
        """Hold client->server GET packets to at least ``gap_s`` apart.

        This is the paper's jitter injector: "the first request can be
        delayed by 0 ms, second by d ms, the third by 2d ms, and so on,
        to achieve an inter-arrival spacing of d ms".  ``initial_gap_s``
        (over the first ``initial_count`` packets of each burst) covers
        objects that need a longer quiet window, e.g. the re-served
        HTML while the server's window is still recovering.
        """
        previous = self._spacing
        if previous is not None:
            self.middlebox.remove_policy(previous)
        self._spacing = SpacingPolicy(min_gap_s=gap_s,
                                      direction=CLIENT_TO_SERVER,
                                      match=carries_request_any,
                                      initial_gap_s=initial_gap_s,
                                      initial_count=initial_count)
        if previous is not None:
            # Retuning must not forget the queue: packets already
            # released keep spacing the ones that follow.
            self._spacing._last_release = previous._last_release
            self._spacing._last_arrival = previous._last_arrival
        if hold_first_until is not None:
            first_gap = initial_gap_s if initial_gap_s is not None else gap_s
            floor = hold_first_until - first_gap
            if (self._spacing._last_release is None
                    or self._spacing._last_release < floor):
                self._spacing._last_release = floor
                self._spacing._last_arrival = self.sim.now
        self.middlebox.add_policy(self._spacing)
        return self._spacing

    # -- netem-style jitter (Table I's knob) --------------------------------

    def set_request_jitter(self, mean_delay_s: float,
                           frac: float = 0.5) -> NetemJitterPolicy:
        """Delay each client->server GET packet independently by
        ``U(mean*(1-frac), mean*(1+frac))`` -- ``tc netem delay`` with
        variation, the paper's Table I jitter."""
        if self._netem is not None:
            self.middlebox.remove_policy(self._netem)
        self._netem = NetemJitterPolicy(self.sim, mean_delay_s,
                                        direction=CLIENT_TO_SERVER, frac=frac,
                                        match=carries_request_any)
        self.middlebox.add_policy(self._netem)
        return self._netem

    def clear_request_jitter(self) -> None:
        if self._netem is not None:
            self.middlebox.remove_policy(self._netem)
            self._netem = None

    # -- uniform delay (the Section IV-A negative control) ----------------------

    def set_uniform_delay(self, delay_s: float) -> UniformDelayPolicy:
        """Delay every client->server packet by a constant amount."""
        if self._delay is not None:
            self.middlebox.remove_policy(self._delay)
        self._delay = UniformDelayPolicy(delay_s, direction=CLIENT_TO_SERVER)
        self.middlebox.add_policy(self._delay)
        return self._delay

    # -- bandwidth ----------------------------------------------------------------

    def set_bandwidth(self, rate_bps: float,
                      max_backlog_s: float = 0.5) -> TokenBucketPolicy:
        """Throttle both directions to ``rate_bps`` (Section IV-C)."""
        if self._throttle is not None:
            self.middlebox.remove_policy(self._throttle)
        self._throttle = TokenBucketPolicy(rate_bps=rate_bps, direction=None,
                                           max_backlog_s=max_backlog_s)
        self.middlebox.add_policy(self._throttle)
        return self._throttle

    # -- targeted drops ---------------------------------------------------------------

    def drop_application_packets(self, rate: float,
                                 duration_s: float) -> WindowedDropPolicy:
        """Drop ``rate`` of application packets for ``duration_s`` starting
        now (the Section IV-D reset-forcing burst)."""
        if self._drop is not None:
            self.middlebox.remove_policy(self._drop)
        now = self.sim.now
        self._drop = WindowedDropPolicy(
            self.sim, rate=rate, direction=SERVER_TO_CLIENT,
            start_at=now, end_at=now + duration_s,
            match=carries_application_data)
        self.middlebox.add_policy(self._drop)
        return self._drop

    def clear_drops(self) -> None:
        if self._drop is not None:
            self.middlebox.remove_policy(self._drop)
            self._drop = None
