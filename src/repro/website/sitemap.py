"""Sites and page-load plans.

A :class:`Site` is the server-side path -> object map.  A
:class:`PageLoadPlan` is the browser-side script of one page load: which
requests go out, when, and what triggers them.  Plans are produced by
site-specific planners (e.g.
:meth:`repro.website.isidewith.IsideWithSite.plan_load`) and executed by
:class:`repro.browser.browser.Browser`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.website.objects import WebObject


@dataclass
class PlannedRequest:
    """One request in a page-load plan.

    ``gap_s`` is the think time since the previous request in the same
    phase (for the first request of a phase, since the phase trigger).
    ``cached`` requests are skipped by the browser -- they model warm
    browser caches.
    """

    path: str
    gap_s: float = 0.0
    weight: int = 16
    cached: bool = False


@dataclass
class PageLoadPlan:
    """The full script of one page load.

    Phases, in trigger order:

    1. ``initial`` -- fired at load start (the pre-HTML requests; on the
       paper's target these are the five app-shell/API calls that make
       the result HTML the 6th GET).
    2. ``html`` -- the document itself, ``html.gap_s`` after the last
       initial request was issued.
    3. ``preload`` -- issued right after the HTML request (preload
       hints baked into the app shell).
    4. ``head_resources`` -- issued when the first HTML bytes arrive
       (speculative parsing).
    5. ``body_resources`` -- issued when roughly half the HTML arrived.
    6. ``scripted`` -- issued ``exec_delay_s`` after the HTML completes
       (the JS-triggered emblem images on the paper's target).
    """

    initial: List[PlannedRequest]
    html: PlannedRequest
    #: Issued immediately after the HTML request (preload hints / service
    #: worker knowledge -- the browser does not wait for HTML bytes).
    preload: List[PlannedRequest] = field(default_factory=list)
    head_resources: List[PlannedRequest] = field(default_factory=list)
    body_resources: List[PlannedRequest] = field(default_factory=list)
    scripted: List[PlannedRequest] = field(default_factory=list)
    exec_delay_s: float = 0.1
    #: Free-form ground truth about this load (e.g. the party permutation).
    meta: Dict[str, object] = field(default_factory=dict)

    def all_requests(self) -> List[PlannedRequest]:
        """Every planned request across phases, in phase order."""
        return (list(self.initial) + [self.html] + list(self.preload)
                + list(self.head_resources) + list(self.body_resources)
                + list(self.scripted))

    def uncached_paths(self) -> List[str]:
        """Paths the browser will actually fetch."""
        return [r.path for r in self.all_requests() if not r.cached]


class Site:
    """A path -> object map served by one authority."""

    def __init__(self, name: str, authority: str):
        self.name = name
        self.authority = authority
        self._objects: Dict[str, WebObject] = {}

    def add(self, obj: WebObject) -> WebObject:
        """Register an object; path collisions are rejected."""
        if obj.path in self._objects:
            raise ValueError(f"duplicate path {obj.path}")
        self._objects[obj.path] = obj
        return obj

    def lookup(self, path: str) -> Optional[WebObject]:
        """Server-side resolution; ``None`` becomes a 404."""
        return self._objects.get(path)

    def __contains__(self, path: str) -> bool:
        return path in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    @property
    def objects(self) -> Dict[str, WebObject]:
        return dict(self._objects)
