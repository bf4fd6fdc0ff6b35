"""Defense mechanism tests."""

import random

import pytest

from repro.core.phases import AttackConfig
from repro.defenses.morphing import MorphingDefense
from repro.defenses.padding import bucket_padding, padding_overhead
from repro.defenses.push import push_client_settings, push_defense_server_config
from repro.defenses.random_order import shuffle_scripted_requests
from repro.experiments.evaluation import sequence_accuracy
from repro.experiments.session import SessionConfig, run_session
from repro.http2.server import Http2ServerConfig
from repro.website.isidewith import (
    HTML_PATH,
    PARTIES,
    PARTY_IMAGE_SIZES,
    build_isidewith_site,
)


def rng():
    return random.Random(3)


# -- padding -------------------------------------------------------------------

def test_bucket_padding_rounds_up():
    pad = bucket_padding(4096)
    assert pad(1, None) == 4096
    assert pad(4096, None) == 4096
    assert pad(4097, None) == 8192


def test_bucket_padding_collapses_emblem_sizes():
    pad = bucket_padding(16_384)
    padded = {pad(size, None) for size in PARTY_IMAGE_SIZES.values()}
    assert len(padded) <= 2  # 5-16 KB all land in one or two buckets


def test_padding_validation():
    with pytest.raises(ValueError):
        bucket_padding(0)


def test_padding_overhead_fraction():
    overhead = padding_overhead([100, 100], bucket_padding(150))
    assert overhead == pytest.approx(0.5)


# -- morphing --------------------------------------------------------------------

def test_morphing_draws_from_cover_at_least_size():
    defense = MorphingDefense([5_000, 10_000, 20_000])
    r = rng()
    for _ in range(50):
        padded = defense(7_000, r)
        assert padded in (10_000, 20_000)


def test_morphing_pads_when_no_cover_fits():
    defense = MorphingDefense([1_000])
    assert defense(8_000, rng()) == 10_000


def test_morphing_requires_cover():
    with pytest.raises(ValueError):
        MorphingDefense([])


# -- random order -------------------------------------------------------------------

def test_shuffle_keeps_paths_and_gaps():
    site = build_isidewith_site()
    plan = site.plan_load(rng())
    original_paths = sorted(r.path for r in plan.scripted)
    original_gaps = [r.gap_s for r in plan.scripted]
    shuffled = shuffle_scripted_requests(plan, rng())
    assert sorted(r.path for r in shuffled.scripted) == original_paths
    assert [r.gap_s for r in shuffled.scripted] == original_gaps
    assert "wire_order" in shuffled.meta


def test_shuffle_changes_order_eventually():
    site = build_isidewith_site()
    r = rng()
    changed = 0
    for _ in range(5):
        plan = site.plan_load(r)
        before = [req.path for req in plan.scripted]
        shuffle_scripted_requests(plan, r)
        after = [req.path for req in plan.scripted]
        changed += before != after
    assert changed >= 4


def test_random_order_defeats_sequence_recovery():
    config = SessionConfig(seed=4, attack=AttackConfig(),
                           plan_transform=shuffle_scripted_requests)
    result = run_session(config)
    # The adversary may still decode the *wire* order perfectly...
    wire_order = result.plan.meta.get("wire_order")
    assert wire_order is not None
    # ...but the preference order is decoupled from it.
    assert sequence_accuracy(result) < 0.8


# -- push -------------------------------------------------------------------------

def test_push_defense_config_maps_html_to_emblems():
    site = build_isidewith_site()
    config = push_defense_server_config(site)
    pushed = config.push_map[HTML_PATH]
    assert len(pushed) == 8
    assert all("emblem" in path for path in pushed)


def test_push_client_settings_enable_push():
    assert push_client_settings().enable_push


def test_push_defense_images_never_requested():
    site_config = SessionConfig(
        seed=5, attack=AttackConfig(),
        server=push_defense_server_config(build_isidewith_site()),
        client_settings=push_client_settings())
    result = run_session(site_config)
    requested = {event.path for event in result.load.requests}
    assert not any("emblem" in path for path in requested)
    # The images still reach the user.
    assert result.load.success
