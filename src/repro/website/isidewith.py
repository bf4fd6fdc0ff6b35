"""Synthetic reconstruction of the paper's target website.

The real target is the isidewith.com "2020 Presidential Quiz" result
page.  From Section V of the paper:

* the result page HTML is ~9500 bytes and is the **6th object** the
  client downloads (five app-shell/API requests precede it),
* the HTML embeds **47 objects** (JS, CSS, images); one JS, on
  execution, requests **8 party-emblem images** of 5-16 KB in the
  user's preference order, with the tiny inter-request gaps of
  Table II,
* emblem image sizes uniquely identify the parties (the adversary has a
  pre-compiled size -> party map).

This module rebuilds that census: 5 uncacheable pre-HTML objects, the
dynamic HTML, 39 cacheable auxiliary embedded objects, and the 8
cache-busted emblem images, plus a per-load planner that samples warm
vs. cold caches and the user's party permutation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.website.objects import SurveyResultGeneration, WebObject
from repro.website.sitemap import PageLoadPlan, PlannedRequest, Site

#: The 8 parties of the survey, in canonical (not display) order.
PARTIES = (
    "democratic",
    "republican",
    "libertarian",
    "green",
    "constitution",
    "socialist",
    "reform",
    "transhumanist",
)

#: Emblem image sizes (bytes): 5-16 KB, unique, well separated so the
#: size side-channel is clean -- as on the real site.
PARTY_IMAGE_SIZES: Dict[str, int] = {
    "democratic": 15_632,
    "republican": 14_218,
    "libertarian": 12_805,
    "green": 11_390,
    "constitution": 10_420,
    "socialist": 8_571,
    "reform": 7_158,
    "transhumanist": 5_742,
}

#: The paper's result HTML size.
HTML_SIZE = 9_500
HTML_PATH = "/polls/results"

#: Share of loads whose survey result is already computed (fast HTML
#: generation), and share of volunteers who arrive with a warm cache.
FAST_GENERATION_PROB = 0.35
WARM_CACHE_PROB = 0.30

#: Inter-request gaps between consecutive emblem-image GETs (seconds),
#: Table II row 1 for I2..I8.
IMAGE_GAPS_S = (0.0004, 0.002, 0.0003, 0.0001, 0.0003, 0.002, 0.0005)

#: The five uncacheable pre-HTML requests (gap before each, path, bytes).
_INITIAL_OBJECTS = (
    (0.000, "/api/session", 2_833),
    (0.002, "/js/app.bundle.js", 86_207),
    (0.001, "/css/main.css", 48_442),
    (0.004, "/js/vendor.bundle.js", 124_913),
    (0.003, "/api/quiz/state", 4_871),
)

#: Result-page assets the app shell preloads as soon as it requests the
#: HTML (path, bytes): the transfers that overlap the HTML's own wire
#: window and give it its high baseline degree of multiplexing.
_PRELOAD_OBJECTS = (
    ("/js/results.chunk.js", 84_316),
    ("/css/results.css", 27_194),
)

#: Uncacheable requests the result-page JS fires in the same burst as
#: the emblem images (API call before, share-widget bundle after).
#: Their sizes deliberately avoid the +-800 B windows around the emblem
#: and HTML sizes so the adversary's size map never confuses them.
_SCRIPTED_COMPANIONS = (
    ("/api/results/summary", 4_100),
    ("/js/share-widgets.js", 17_450),
)

#: 39 cacheable auxiliary embedded objects: (path, bytes, head?).
#: Aux sizes stay outside the +-400 B identification bands around the
#: HTML and emblem sizes (5.3-16.1 KB): the paper's target-object
#: uniqueness condition (Section II, condition 2).
_AUX_OBJECTS = tuple(
    [(f"/css/theme-{i}.css", 2_900 + 550 * i, True) for i in range(4)]
    + [(f"/js/widget-{i}.js", 19_850 + 1_700 * i, True) for i in range(6)]
    + [(f"/img/icon-{i}.png", 2_050 + 180 * i, False) for i in range(16)]
    + [(f"/img/banner-{i}.jpg", 30_400 + 2_141 * i, False) for i in range(8)]
    + [(f"/fonts/face-{i}.woff2", 46_600 + 3_013 * i, False) for i in range(5)]
)


class IsideWithSite(Site):
    """The synthetic target with its per-load planner."""

    def __init__(self):
        super().__init__(name="isidewith", authority="www.isidewith.com")

        for _, path, size in _INITIAL_OBJECTS:
            content = "application/json" if path.startswith("/api/") else (
                "text/css" if path.endswith(".css") else "application/javascript")
            self.add(WebObject(path=path, size=size, content_type=content,
                               cacheable=False))

        self.add(WebObject(
            path=HTML_PATH, size=HTML_SIZE, content_type="text/html",
            cacheable=False,
            generation=SurveyResultGeneration(fast_prob=FAST_GENERATION_PROB)))

        for path, size in _PRELOAD_OBJECTS:
            content = ("text/css" if path.endswith(".css")
                       else "application/javascript")
            self.add(WebObject(path=path, size=size, content_type=content))

        for path, size in _SCRIPTED_COMPANIONS:
            content = ("application/json" if path.startswith("/api/")
                       else "application/javascript")
            self.add(WebObject(path=path, size=size, content_type=content,
                               cacheable=False))

        for path, size, _head in _AUX_OBJECTS:
            content = ("text/css" if path.endswith(".css")
                       else "application/javascript" if path.endswith(".js")
                       else "font/woff2" if path.endswith(".woff2")
                       else "image/png")
            self.add(WebObject(path=path, size=size, content_type=content))

        for party in PARTIES:
            self.add(WebObject(path=self.image_path(party),
                               size=PARTY_IMAGE_SIZES[party],
                               content_type="image/png",
                               cacheable=False))

    @staticmethod
    def image_path(party: str) -> str:
        return f"/img/emblem-{party}.png"

    def party_size_map(self) -> Dict[int, str]:
        """The adversary's pre-compiled image-size -> party map."""
        return {size: party for party, size in PARTY_IMAGE_SIZES.items()}

    # -- per-load planning ----------------------------------------------------

    def plan_load(self, rng, permutation: Optional[Sequence[str]] = None,
                  warm: Optional[bool] = None) -> PageLoadPlan:
        """Sample one volunteer's page load.

        ``permutation`` is the party preference order (sampled uniformly
        when absent -- the volunteer's survey answers); ``warm`` forces
        the cache state (sampled from ``WARM_CACHE_PROB`` when absent).
        """
        if permutation is None:
            permutation = list(PARTIES)
            rng.shuffle(permutation)
        else:
            permutation = list(permutation)
            if sorted(permutation) != sorted(PARTIES):
                raise ValueError("permutation must order exactly the 8 parties")
        if warm is None:
            warm = rng.random() < WARM_CACHE_PROB

        initial = [
            PlannedRequest(path=path,
                           gap_s=gap * rng.uniform(0.6, 1.8),
                           weight=32)
            for gap, path, _ in _INITIAL_OBJECTS
        ]
        html = PlannedRequest(path=HTML_PATH,
                              gap_s=rng.uniform(0.40, 0.60), weight=32)

        preload = [
            PlannedRequest(path=path, gap_s=rng.uniform(0.001, 0.004),
                           weight=28, cached=warm)
            for path, _size in _PRELOAD_OBJECTS
        ]

        head_resources: List[PlannedRequest] = []
        body_resources: List[PlannedRequest] = []
        for path, _size, is_head in _AUX_OBJECTS:
            request = PlannedRequest(
                path=path,
                gap_s=rng.uniform(0.0002, 0.003),
                weight=24 if is_head else 12,
                cached=warm,
            )
            (head_resources if is_head else body_resources).append(request)

        api_path, widget_path = (c[0] for c in _SCRIPTED_COMPANIONS)
        scripted = [PlannedRequest(path=api_path, gap_s=0.0, weight=20)]
        for i, party in enumerate(permutation):
            gap = (0.0008 if i == 0
                   else IMAGE_GAPS_S[i - 1] * rng.uniform(0.7, 1.4))
            scripted.append(PlannedRequest(path=self.image_path(party),
                                           gap_s=gap, weight=22))
        scripted.append(PlannedRequest(path=widget_path,
                                       gap_s=rng.uniform(0.0005, 0.002),
                                       weight=12))

        return PageLoadPlan(
            initial=initial,
            html=html,
            preload=preload,
            head_resources=head_resources,
            body_resources=body_resources,
            scripted=scripted,
            exec_delay_s=rng.uniform(0.45, 0.75),
            meta={"permutation": tuple(permutation), "warm": warm},
        )


def build_isidewith_site() -> IsideWithSite:
    """Factory used throughout the experiments."""
    return IsideWithSite()
