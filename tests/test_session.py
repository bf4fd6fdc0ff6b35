"""Session runner and evaluation tests."""

import pytest

from repro.core.phases import AttackConfig
from repro.experiments.evaluation import (
    aggregate_table2,
    evaluate_table2,
    sequence_accuracy,
)
from repro.experiments.session import (
    SessionConfig,
    isidewith_size_map,
    run_session,
)
from repro.website.isidewith import (
    HTML_PATH,
    PARTIES,
    IsideWithSite,
    build_isidewith_site,
)


def test_clean_session_completes():
    result = run_session(SessionConfig(seed=0))
    assert result.load is not None and result.load.success
    assert result.report is None
    assert len(result.tx_log) > 100
    assert result.retransmissions >= 0


def test_session_is_deterministic():
    a = run_session(SessionConfig(seed=42, attack=AttackConfig()))
    b = run_session(SessionConfig(seed=42, attack=AttackConfig()))
    assert a.permutation == b.permutation
    assert a.report.predicted_labels == b.report.predicted_labels
    assert a.duration_s == b.duration_s
    assert a.retransmissions == b.retransmissions


def test_different_seeds_differ():
    a = run_session(SessionConfig(seed=1))
    b = run_session(SessionConfig(seed=2))
    assert a.permutation != b.permutation or a.duration_s != b.duration_s


def test_forced_permutation_and_warm():
    # A session reports the permutation and cache state of the plan its
    # site hands out; a site that forces both is loaded as forced.
    forced = list(reversed(PARTIES))

    class ForcedSite(IsideWithSite):
        def plan_load(self, rng, permutation=None, warm=None):
            return super().plan_load(rng, permutation=forced, warm=True)

    result = run_session(SessionConfig(seed=0, site_factory=ForcedSite))
    assert list(result.permutation) == forced
    assert result.warm


def test_size_map_covers_html_and_parties():
    size_map = isidewith_size_map(build_isidewith_site())
    assert set(size_map.labels) == set(PARTIES) | {"html"}


def test_degree_helpers():
    result = run_session(SessionConfig(seed=0))
    assert 0.0 <= result.degree(HTML_PATH) <= 1.0
    assert result.serialized("/no/such/object") is False


def test_evaluate_table2_structure():
    result = run_session(SessionConfig(seed=0, attack=AttackConfig()))
    outcome = evaluate_table2(result)
    assert len(outcome.image_single) == 8
    assert len(outcome.image_all) == 8
    # All-objects success implies single-object success per position.
    for single, ordered in zip(outcome.image_single, outcome.image_all):
        if ordered:
            assert single


def test_evaluate_table2_requires_attack():
    result = run_session(SessionConfig(seed=0))
    with pytest.raises(ValueError):
        evaluate_table2(result)


def test_aggregate_table2():
    results = [run_session(SessionConfig(seed=s, attack=AttackConfig()))
               for s in range(3)]
    outcomes = [evaluate_table2(r) for r in results]
    aggregated = aggregate_table2(outcomes)
    assert aggregated["n"] == 3
    assert len(aggregated["single"]) == 9
    assert len(aggregated["all"]) == 9
    assert all(0 <= x <= 100 for x in aggregated["all"])


def test_sequence_accuracy_bounds():
    result = run_session(SessionConfig(seed=0, attack=AttackConfig()))
    assert 0.0 <= sequence_accuracy(result) <= 1.0


def test_sequence_accuracy_zero_without_attack():
    result = run_session(SessionConfig(seed=0))
    assert sequence_accuracy(result) == 0.0
