"""Streaming workload and experiment tests."""

import pytest

from repro.experiments.streaming import (
    _accuracy,
    _run_streaming_session,
    run_streaming,
)
from repro.website import streaming as streaming_site
from repro.website.streaming import (
    DEFAULT_LADDER,
    SEGMENT_DURATION_S,
    StreamingSite,
    Viewer,
)


def test_site_census(monkeypatch):
    monkeypatch.setattr(streaming_site, "N_SEGMENTS", 5)
    site = StreamingSite()
    assert len(site.objects) == 5 * len(DEFAULT_LADDER)
    for (rung, index), size in site.segment_sizes.items():
        nominal = DEFAULT_LADDER[rung] * SEGMENT_DURATION_S / 8
        assert abs(size - nominal) / nominal <= 0.10
        assert site.lookup(site.segment_path(rung, index)).size == size


def test_rung_of_size_classification():
    site = StreamingSite()
    for rung, bitrate in enumerate(DEFAULT_LADDER):
        nominal = int(bitrate * SEGMENT_DURATION_S / 8)
        assert site.rung_of_size(nominal) == rung
    assert site.rung_of_size(10) is None


def test_sequential_session_completes_all_segments():
    session, trace, site, _ = _run_streaming_session(seed=1, prefetch=1,
                                                     attack_spacing_s=None)
    assert session.completed_segments == site.n_segments
    assert len(session.rung_history) == site.n_segments


def test_abr_climbs_the_ladder_on_a_fast_path():
    session, _, _, _ = _run_streaming_session(seed=1, prefetch=1,
                                              attack_spacing_s=None)
    assert session.rung_history[0] == 0
    assert max(session.rung_history) >= 2  # adapted upward


def test_pipelined_session_keeps_multiple_in_flight():
    session, trace, site, _ = _run_streaming_session(seed=2, prefetch=3,
                                                     attack_spacing_s=None)
    assert session.completed_segments == site.n_segments


def test_accuracy_helper():
    assert _accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert _accuracy([1, 2, 3], [1, 9, 3]) == pytest.approx(2 / 3)
    assert _accuracy([], []) == 0.0


def test_streaming_experiment_shape():
    result = run_streaming(n_sessions=2)
    names = [p.condition for p in result.points]
    assert len(names) == 4
    by_name = dict(zip(names, result.points))
    assert by_name["sequential player"].rung_accuracy_pct \
        > by_name["pipelined player (3 in flight)"].rung_accuracy_pct
