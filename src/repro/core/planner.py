"""Attack planning: how much spacing does a target object need?

Section IV-B: "The amount of jitter to be introduced should depend on
the size of the object of interest, the time elapsed since the previous
GET request, and the time interval before the issuance of the next GET
request by the client under normal network conditions."

These helpers compute that amount from the adversary's (coarse) model of
the path: an object is safe from multiplexing when the next request
reaches the server only after the object has fully drained, and the
drain time of a cwnd-limited transfer is a small number of RTTs.
"""

from __future__ import annotations

import math
from typing import List, Sequence

#: The server's initial congestion window (10 segments of 1400 bytes).
INIT_CWND_BYTES = 14_000
#: Worker spawn and first-chunk latency added to every drain estimate.
SERVER_THINK_S = 0.002
#: Margin of the spacing over the estimated drain time.
SAFETY_FACTOR = 1.5


def drain_time_s(object_size: int, rtt_s: float) -> float:
    """Estimated wire time of an object under slow start.

    Doubling windows: the transfer needs ``ceil(log2(size/cwnd0 + 1))``
    round trips.  A small server think time covers worker spawn and
    first-chunk latency.
    """
    if object_size <= 0:
        raise ValueError("object_size must be positive")
    rounds = max(1, math.ceil(math.log2(object_size / INIT_CWND_BYTES + 1)))
    return SERVER_THINK_S + rounds * rtt_s


def required_spacing_s(object_size: int, rtt_s: float) -> float:
    """Inter-request spacing that serializes an object of this size."""
    return SAFETY_FACTOR * drain_time_s(object_size, rtt_s)


def spacing_schedule(natural_gaps_s: Sequence[float],
                     target_gap_s: float) -> List[float]:
    """Per-request hold times achieving ``target_gap_s`` spacing.

    Given the natural inter-request gaps (Table II rows 1-2), request
    ``k`` must be held ``max(0, k*d - sum(natural gaps up to k))`` --
    the paper's "first request delayed by 0 ms, second by d ms, third by
    2d ms" rule, corrected for time the client already spent.
    """
    holds: List[float] = [0.0]
    elapsed = 0.0
    for k, gap in enumerate(natural_gaps_s, start=1):
        elapsed += gap
        holds.append(max(0.0, k * target_gap_s - elapsed))
    return holds
