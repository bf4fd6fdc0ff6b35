"""Web objects and dynamic-generation profiles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Survey-result HTML generation: bytes per generated chunk, and the
#: uniform ranges of the first-chunk delay and of the gaps between
#: later chunks in *fast* and *slow* mode (seconds).
SURVEY_CHUNK_SIZE = 2740
SURVEY_FAST_INITIAL_S = (0.008, 0.026)
SURVEY_FAST_GAP_S = (0.0015, 0.004)
SURVEY_SLOW_INITIAL_S = (0.025, 0.060)
SURVEY_SLOW_GAP_S = (0.015, 0.050)


class GenerationProfile:
    """How a dynamic object's bytes become available over time.

    ``plan(rng, size)`` returns the generation schedule as a list of
    ``(gap_before_chunk_s, chunk_bytes)`` pairs summing to ``size``.
    The first gap is measured from worker spawn.
    """

    def plan(self, rng, size: int) -> List[Tuple[float, int]]:
        raise NotImplementedError


class SurveyResultGeneration(GenerationProfile):
    """The paper's survey-result HTML: template rendering + DB queries.

    Per generation, the server is in *fast* mode with probability
    ``fast_prob`` (result already computed; short render) or *slow* mode
    (scoring queries run between chunks).  Slow-mode generations stretch
    the HTML transmission over a long window, which is what makes the
    HTML's baseline degree of multiplexing so high -- and what the
    jitter-only attack cannot beat, motivating the reset phase.
    """

    def __init__(self, fast_prob: float = 0.45):
        self.fast_prob = fast_prob

    def plan(self, rng, size: int) -> List[Tuple[float, int]]:
        fast = rng.random() < self.fast_prob
        initial = SURVEY_FAST_INITIAL_S if fast else SURVEY_SLOW_INITIAL_S
        gap = SURVEY_FAST_GAP_S if fast else SURVEY_SLOW_GAP_S
        schedule: List[Tuple[float, int]] = []
        remaining = size
        first = True
        while remaining > 0:
            chunk = min(SURVEY_CHUNK_SIZE, remaining)
            delay = rng.uniform(*initial) if first else rng.uniform(*gap)
            schedule.append((delay, chunk))
            remaining -= chunk
            first = False
        return schedule


@dataclass
class WebObject:
    """One addressable resource on the site."""

    path: str
    size: int
    content_type: str = "application/octet-stream"
    #: ``None`` for static objects; a profile for dynamically generated
    #: ones (which are also uncacheable).
    generation: Optional[GenerationProfile] = None
    #: Whether a browser may satisfy this object from its cache.
    cacheable: bool = True

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"object {self.path} must have positive size")
