"""Website model tests: isidewith census, plans, generator."""

import random

import pytest

from repro.website import generator
from repro.website.generator import RandomSiteBuilder
from repro.website.isidewith import (
    HTML_PATH,
    HTML_SIZE,
    IsideWithSite,
    PARTIES,
    PARTY_IMAGE_SIZES,
    build_isidewith_site,
)
from repro.website.objects import SurveyResultGeneration, WebObject
from repro.website.sitemap import Site


def rng():
    return random.Random(7)


# -- objects -----------------------------------------------------------------

def test_object_requires_positive_size():
    with pytest.raises(ValueError):
        WebObject(path="/x", size=0)


def test_survey_generation_covers_size():
    profile = SurveyResultGeneration()
    plan = profile.plan(rng(), HTML_SIZE)
    assert sum(chunk for _, chunk in plan) == HTML_SIZE
    assert all(gap >= 0 for gap, _ in plan)


def test_survey_generation_bimodal():
    profile = SurveyResultGeneration(fast_prob=0.5)
    totals = []
    r = rng()
    for _ in range(200):
        plan = profile.plan(r, HTML_SIZE)
        totals.append(sum(gap for gap, _ in plan))
    fast = sum(1 for t in totals if t < 0.06)
    slow = sum(1 for t in totals if t > 0.08)
    assert fast > 40 and slow > 40


# -- site --------------------------------------------------------------------

def test_site_lookup_and_membership():
    site = Site("s", "a.example")
    obj = site.add(WebObject(path="/x", size=10))
    assert site.lookup("/x") is obj
    assert site.lookup("/missing") is None
    assert "/x" in site and len(site) == 1


def test_duplicate_path_rejected():
    site = Site("s", "a.example")
    site.add(WebObject(path="/x", size=10))
    with pytest.raises(ValueError):
        site.add(WebObject(path="/x", size=20))


# -- isidewith ------------------------------------------------------------------

def test_census_matches_paper():
    site = build_isidewith_site()
    html = site.lookup(HTML_PATH)
    assert html.size == 9_500
    assert html.generation is not None
    for party in PARTIES:
        image = site.lookup(IsideWithSite.image_path(party))
        assert 5_000 <= image.size <= 16_049
        assert not image.cacheable


def test_emblem_sizes_unique_and_separated():
    sizes = sorted(PARTY_IMAGE_SIZES.values()) + [HTML_SIZE]
    sizes.sort()
    for a, b in zip(sizes, sizes[1:]):
        assert b - a > 800  # 2x the predictor tolerance


def test_aux_sizes_avoid_identification_bands():
    site = build_isidewith_site()
    targets = set(PARTY_IMAGE_SIZES.values()) | {HTML_SIZE}
    for path, obj in site.objects.items():
        if path == HTML_PATH or "emblem" in path:
            continue
        for target in targets:
            assert abs(obj.size - target) > 400, (path, obj.size, target)


def test_plan_structure():
    site = build_isidewith_site()
    plan = site.plan_load(rng())
    assert len(plan.initial) == 5
    assert plan.html.path == HTML_PATH
    # 47 embedded objects: 39 aux + 8 emblems (+2 scripted companions).
    embedded = (len(plan.head_resources) + len(plan.body_resources)
                + sum(1 for r in plan.scripted if "emblem" in r.path))
    assert embedded == 47
    assert plan.html.gap_s >= 0.4


def test_plan_html_is_sixth_request():
    site = build_isidewith_site()
    plan = site.plan_load(rng())
    ordered = plan.all_requests()
    assert ordered[5].path == HTML_PATH


def test_plan_permutation_sampled_and_recorded():
    site = build_isidewith_site()
    plan = site.plan_load(rng())
    assert sorted(plan.meta["permutation"]) == sorted(PARTIES)
    image_order = [r.path for r in plan.scripted if "emblem" in r.path]
    assert image_order == [IsideWithSite.image_path(p)
                           for p in plan.meta["permutation"]]


def test_plan_respects_forced_permutation_and_warm():
    site = build_isidewith_site()
    forced = list(reversed(PARTIES))
    plan = site.plan_load(rng(), permutation=forced, warm=True)
    assert list(plan.meta["permutation"]) == forced
    assert plan.meta["warm"] is True
    assert all(r.cached for r in plan.head_resources)


def test_bad_permutation_rejected():
    site = build_isidewith_site()
    with pytest.raises(ValueError):
        site.plan_load(rng(), permutation=["democratic"] * 8)


def test_warm_plan_still_requests_initial_and_images():
    site = build_isidewith_site()
    plan = site.plan_load(rng(), warm=True)
    uncached = plan.uncached_paths()
    assert HTML_PATH in uncached
    assert len([p for p in uncached if "emblem" in p]) == 8
    assert len([r for r in plan.initial if not r.cached]) == 5


# -- generator --------------------------------------------------------------------

def test_generator_builds_requested_pages(monkeypatch):
    monkeypatch.setattr(generator, "OBJECTS_PER_PAGE", 4)
    monkeypatch.setattr(generator, "SITE_SEED", 3)
    site = RandomSiteBuilder(n_pages=5).build()
    assert len(site.pages) == 5
    for page in site.pages:
        assert site.lookup(page.html_path) is not None
        for path in page.embedded:
            assert site.lookup(path) is not None


def test_generator_sizes_unique(monkeypatch):
    monkeypatch.setattr(generator, "OBJECTS_PER_PAGE", 5)
    monkeypatch.setattr(generator, "SITE_SEED", 1)
    site = RandomSiteBuilder(n_pages=6).build()
    sizes = [obj.size for obj in site.objects.values()]
    assert len(sizes) == len(set(sizes))


def test_generator_deterministic(monkeypatch):
    monkeypatch.setattr(generator, "SITE_SEED", 9)
    a = RandomSiteBuilder().build()
    b = RandomSiteBuilder().build()
    assert {p: o.size for p, o in a.objects.items()} == \
           {p: o.size for p, o in b.objects.items()}


def test_generator_plan_load(monkeypatch):
    monkeypatch.setattr(generator, "SITE_SEED", 2)
    site = RandomSiteBuilder(n_pages=3).build()
    plan = site.plan_load(rng(), 1)
    assert plan.html.path == site.pages[1].html_path
    assert plan.meta["page_id"] == 1
