"""DASH-like adaptive streaming workload (paper Section VII).

"Exploring the suitability of our technique for other types of web
traffic, such as streaming traffic, is an interesting direction."

The model: a video is offered at several bitrate rungs; the player
requests one ~2-second segment at a time and adapts the rung to its
recent throughput.  Segment sizes cluster by rung (bitrate x duration,
with VBR noise), so an eavesdropper who recovers segment sizes learns
the watched quality ladder -- and with it rebuffering events, network
conditions, and (given per-title ladders) potentially the title.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.website.objects import WebObject
from repro.website.sitemap import Site

#: Bitrate ladder (bits per second).
DEFAULT_LADDER = (300_000, 800_000, 1_500_000, 3_000_000)
SEGMENT_DURATION_S = 2.0
#: Segment sizes vary uniformly within this fraction of nominal (VBR).
VBR_SPREAD = 0.10
#: Segments per rung of the ladder.
N_SEGMENTS = 20
#: Seed of the VBR noise: site content, fixed for every run.
SITE_SEED = 17


class StreamingSite(Site):
    """A video origin serving a fixed bitrate ladder."""

    def __init__(self):
        super().__init__(name="streaming", authority="video.example")
        # Seeded construction-time stream, the generator.py idiom: VBR
        # noise is site content, fixed by the site seed, not by any
        # global RNG state.
        rng = random.Random(SITE_SEED)
        self.ladder = DEFAULT_LADDER
        self.n_segments = N_SEGMENTS
        self.segment_sizes: Dict[Tuple[int, int], int] = {}
        for rung, bitrate in enumerate(self.ladder):
            nominal = int(bitrate * SEGMENT_DURATION_S / 8)
            for index in range(N_SEGMENTS):
                size = int(nominal * rng.uniform(1 - VBR_SPREAD,
                                                 1 + VBR_SPREAD))
                path = self.segment_path(rung, index)
                self.add(WebObject(path=path, size=size,
                                   content_type="video/mp4",
                                   cacheable=False))
                self.segment_sizes[(rung, index)] = size

    @staticmethod
    def segment_path(rung: int, index: int) -> str:
        return f"/video/{rung}/seg-{index}.m4s"

    def rung_of_size(self, size: int) -> Optional[int]:
        """Classify a recovered size to the nearest rung's nominal size.

        Returns ``None`` when the size is implausibly far from every
        rung (more than 35 % away from the nominal segment size).
        """
        best_rung, best_error = None, None
        for rung, bitrate in enumerate(self.ladder):
            nominal = bitrate * SEGMENT_DURATION_S / 8
            error = abs(size - nominal) / nominal
            if best_error is None or error < best_error:
                best_rung, best_error = rung, error
        if best_error is not None and best_error <= 0.35:
            return best_rung
        return None


@dataclass
class ViewerSession:
    """Outcome of one streaming session."""

    rung_history: List[int]
    completed_segments: int
    rebuffer_events: int


class Viewer:
    """Throughput-adaptive player over an HTTP/2 client.

    Requests one segment at a time (``prefetch=1``, the naturally
    serialized case) or keeps several in flight (``prefetch>=2``,
    which multiplexes on HTTP/2 and garbles passive size recovery).
    """

    def __init__(self, sim, client, site: StreamingSite, prefetch: int = 1):
        self.sim = sim
        self.client = client
        self.site = site
        self.prefetch = max(1, prefetch)
        self.rung = 0
        self.rung_history: List[int] = []
        self.completed = 0
        self.rebuffers = 0
        self._next_index = 0
        self._in_flight = 0
        self._last_throughput_bps: Optional[float] = None
        self.done = False

    def start(self) -> None:
        self.client.connect(self._fill_pipeline)

    def _fill_pipeline(self) -> None:
        while (self._in_flight < self.prefetch
               and self._next_index < self.site.n_segments):
            index = self._next_index
            self._next_index += 1
            self.rung_history.append(self.rung)
            path = self.site.segment_path(self.rung, index)
            self._in_flight += 1
            requested_at = self.sim.now
            self.client.request(
                path,
                on_complete=lambda s, t0=requested_at: self._on_segment(s, t0))

    def _on_segment(self, stream, requested_at: float) -> None:
        self._in_flight -= 1
        self.completed += 1
        elapsed = max(self.sim.now - requested_at, 1e-6)
        throughput = stream.bytes_received * 8 / elapsed
        self._last_throughput_bps = throughput
        if elapsed > SEGMENT_DURATION_S:
            self.rebuffers += 1
        self._adapt(throughput)
        if self.completed >= self.site.n_segments:
            self.done = True
            return
        # Steady state: the next request goes out when playback consumes
        # a segment (2 s cadence), or immediately when behind.
        delay = max(0.0, SEGMENT_DURATION_S - elapsed)
        self.sim.schedule(delay, self._fill_pipeline)

    def _adapt(self, throughput_bps: float) -> None:
        """Simple rate-based ABR with an up-switch safety factor."""
        ladder = self.site.ladder
        candidate = self.rung
        if (self.rung + 1 < len(ladder)
                and throughput_bps > 1.5 * ladder[self.rung + 1]):
            candidate = self.rung + 1
        elif throughput_bps < 1.1 * ladder[self.rung] and self.rung > 0:
            candidate = self.rung - 1
        self.rung = candidate

    def result(self) -> ViewerSession:
        return ViewerSession(rung_history=list(self.rung_history),
                             completed_segments=self.completed,
                             rebuffer_events=self.rebuffers)
