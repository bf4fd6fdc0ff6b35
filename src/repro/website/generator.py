"""Random website generation for fingerprinting datasets.

Builds a site with ``n_pages`` pages, each with its own HTML document
and a sampled set of embedded objects.  Object sizes are drawn so that
most pages contain at least one uniquely sized object -- the property
(Section II of the paper) that makes the size side-channel decisive.
Used by the :mod:`repro.analysis` fingerprinting experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.website.objects import WebObject
from repro.website.sitemap import PageLoadPlan, PlannedRequest, Site

#: Objects shared across pages (a page embeds a random prefix of them).
SHARED_OBJECTS = 6
#: Object sizes are drawn uniformly from this half-open range (bytes).
MIN_OBJECT_SIZE = 2_000
MAX_OBJECT_SIZE = 60_000
#: Page-specific objects each page embeds.
OBJECTS_PER_PAGE = 8
#: Seed of the site's construction stream: the site is the same in
#: every run.
SITE_SEED = 7


@dataclass
class GeneratedPage:
    """One generated page: its HTML path and embedded object paths."""

    page_id: int
    html_path: str
    embedded: List[str]


class RandomSiteBuilder:
    """Deterministic random site construction."""

    def __init__(self, n_pages: int = 12):
        self.n_pages = n_pages

    def build(self) -> "RandomSite":
        rng = random.Random(SITE_SEED)
        site = RandomSite(name="random-site", authority="random.example")
        used_sizes = set()

        def fresh_size() -> int:
            while True:
                size = rng.randrange(MIN_OBJECT_SIZE, MAX_OBJECT_SIZE)
                if size not in used_sizes:
                    used_sizes.add(size)
                    return size

        shared_paths = []
        for i in range(SHARED_OBJECTS):
            path = f"/shared/common-{i}.js"
            site.add(WebObject(path=path, size=fresh_size(),
                               content_type="application/javascript"))
            shared_paths.append(path)

        for page_id in range(self.n_pages):
            html_path = f"/page/{page_id}"
            site.add(WebObject(path=html_path, size=fresh_size(),
                               content_type="text/html", cacheable=False))
            embedded = list(shared_paths[:rng.randrange(
                0, SHARED_OBJECTS + 1)])
            for j in range(OBJECTS_PER_PAGE):
                path = f"/page/{page_id}/asset-{j}.png"
                site.add(WebObject(path=path, size=fresh_size(),
                                   content_type="image/png"))
                embedded.append(path)
            site.pages.append(GeneratedPage(page_id=page_id,
                                            html_path=html_path,
                                            embedded=embedded))
        return site


class RandomSite(Site):
    """A generated site with per-page load planning."""

    def __init__(self, name: str, authority: str):
        super().__init__(name, authority)
        self.pages: List[GeneratedPage] = []

    def plan_load(self, rng, page_id: int) -> PageLoadPlan:
        """Plan a load of the given page (cold cache)."""
        page = self.pages[page_id]
        html = PlannedRequest(path=page.html_path, gap_s=0.0, weight=32)
        embedded = [
            PlannedRequest(path=path, gap_s=rng.uniform(0.0002, 0.004),
                           weight=16)
            for path in page.embedded
        ]
        return PageLoadPlan(
            initial=[],
            html=html,
            head_resources=embedded,
            exec_delay_s=rng.uniform(0.02, 0.08),
            meta={"page_id": page_id},
        )
