"""Padding defenses: destroy size uniqueness at a bandwidth cost.

This is the "expensive" defense (Section I of the paper) the HTTP/2
multiplexing schemes hoped to replace.  :func:`bucket_padding` returns a
``pad_object`` hook for :class:`repro.http2.server.Http2ServerConfig`.
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


def padding_overhead(sizes, pad: Callable) -> float:
    """Fractional bandwidth overhead of a padding scheme over ``sizes``."""
    original = sum(sizes)
    padded = sum(pad(s, None) for s in sizes)
    return (padded - original) / original if original else 0.0
