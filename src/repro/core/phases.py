"""Attack configuration and phase definitions (Section V).

The full pipeline, in the paper's order:

1. **SPACING** -- from attach time, hold client GETs ``spacing_s``
   apart (50 ms in the paper) and count them.
2. **DISRUPT** -- on the trigger GET (the 6th: the result HTML),
   throttle the path (800 Mbps) and drop ``drop_rate`` of the
   application packets on the server -> client path for up to
   ``adversary.DROP_DURATION_S`` (80 % for 6 s), forcing the client to
   RST_STREAM everything.
3. **SERIALIZE** -- after the burst, raise the spacing to
   ``serialize_spacing_s`` (80 ms) so the re-requested HTML and the 8
   consecutive emblem images are each served alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class AttackPhase(Enum):
    """Where the attack state machine currently is."""

    IDLE = "idle"
    SPACING = "spacing"
    DISRUPT = "disrupt"
    SERIALIZE = "serialize"


@dataclass
class AttackConfig:
    """All knobs of the serialization attack.

    Disabling pieces yields the paper's intermediate adversaries:
    ``trigger_request_index=None`` gives the jitter-only adversary of
    Table I; adding ``throttle_bps_at_start`` gives the Fig. 5 setup;
    the defaults give the full Section V pipeline.
    """

    #: Phase-1 GET spacing; 0 disables spacing entirely.
    spacing_s: float = 0.05
    #: Phase-1 jitter implementation: "spacing" is the deterministic
    #: hold-queue ramp ("first request by 0 ms, second by d ms, ...");
    #: "netem" is tc-netem-style independent per-packet delay with
    #: variation, which additionally reorders tightly spaced GETs (the
    #: Table I measurement setup).  The serialize phase always uses the
    #: deterministic ramp.
    phase1_style: str = "spacing"
    #: The Section IV-A negative control: constant extra delay on every
    #: client->server packet (cannot change inter-arrival times).
    uniform_delay_s: Optional[float] = None
    #: Post-reset GET spacing (the 80 ms of Section V).
    serialize_spacing_s: float = 0.08
    #: Which GET starts the disrupt phase; ``None`` = never (jitter only).
    trigger_request_index: Optional[int] = 6
    #: Throttle applied at attach time (the Fig. 5 experiment), if any.
    throttle_bps_at_start: Optional[float] = None
    #: Throttle applied at the trigger (the Section V pipeline), if any.
    throttle_bps_at_trigger: Optional[float] = 800e6
    #: Targeted drop rate of the burst (Section IV-D).
    drop_rate: float = 0.8

    def validate(self) -> None:
        """Sanity-check knob ranges."""
        if self.spacing_s < 0 or self.serialize_spacing_s < 0:
            raise ValueError("spacing must be non-negative")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be a probability")
        if (self.trigger_request_index is not None
                and self.trigger_request_index < 1):
            raise ValueError("trigger_request_index must be >= 1")
        if self.phase1_style not in ("spacing", "netem"):
            raise ValueError(f"unknown phase1_style {self.phase1_style!r}")


def uniform_delay_config(delay_s: float) -> AttackConfig:
    """The Section IV-A adversary: constant delay only (no effect)."""
    return AttackConfig(spacing_s=0.0, serialize_spacing_s=0.0,
                        trigger_request_index=None,
                        throttle_bps_at_trigger=None,
                        uniform_delay_s=delay_s)


def jitter_only_config(spacing_s: float,
                       style: str = "spacing") -> AttackConfig:
    """The Table I adversary: jitter only, no throttle, no drops."""
    return AttackConfig(spacing_s=spacing_s, serialize_spacing_s=spacing_s,
                        phase1_style=style,
                        trigger_request_index=None,
                        throttle_bps_at_trigger=None)


def jitter_plus_throttle_config(spacing_s: float,
                                throttle_bps: float) -> AttackConfig:
    """The Fig. 5 adversary: jitter plus a session-long throttle."""
    return AttackConfig(spacing_s=spacing_s, serialize_spacing_s=spacing_s,
                        trigger_request_index=None,
                        throttle_bps_at_trigger=None,
                        throttle_bps_at_start=throttle_bps)
