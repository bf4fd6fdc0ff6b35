"""Padding defenses: destroy size uniqueness at a bandwidth cost.

These are the "expensive" defenses (Section I of the paper) the HTTP/2
multiplexing schemes hoped to replace.  Both return ``pad_object``
hooks for :class:`repro.http2.server.Http2ServerConfig`.
"""

from __future__ import annotations

import math
from typing import Callable


def bucket_padding(bucket_bytes: int = 4096) -> Callable:
    """Pad every object up to the next multiple of ``bucket_bytes``.

    Objects within the same bucket become indistinguishable by size;
    with a 16 KB bucket all eight emblem images collapse into one or two
    size classes and the adversary's size map is useless.
    """
    if bucket_bytes <= 0:
        raise ValueError("bucket_bytes must be positive")

    def pad(size: int, _rng) -> int:
        return int(math.ceil(size / bucket_bytes) * bucket_bytes)

    return pad


#: Size-class ratio of :func:`exponential_padding`.
EXPONENTIAL_BASE = 1.3


def exponential_padding() -> Callable:
    """Pad to the next power of :data:`EXPONENTIAL_BASE` (logarithmic
    size classes).

    Bounded multiplicative overhead with coarser classes for larger
    objects -- the Panchenko-style compromise.
    """
    base = EXPONENTIAL_BASE
    if base <= 1.0:
        raise ValueError("base must exceed 1")

    def pad(size: int, _rng) -> int:
        exponent = math.ceil(math.log(max(size, 1)) / math.log(base))
        return max(size, int(base ** exponent))

    return pad


def padding_overhead(sizes, pad: Callable) -> float:
    """Fractional bandwidth overhead of a padding scheme over ``sizes``."""
    original = sum(sizes)
    padded = sum(pad(s, None) for s in sizes)
    return (padded - original) / original if original else 0.0
