"""Small-N smoke tests of every experiment harness.

Each harness is exercised end to end at tiny repetition counts: these
assert structure and sanity, not the calibrated numbers.  The paper's
shape claims are judged by each result's ``claims()`` at the artefact's
default N (``python -m repro <artefact>`` prints them and exits 1 when
one fails); here they only have to be well formed.
"""

import pytest

from repro.experiments.ablations import (
    legacy_tcp_config,
    run_dupserve_ablation,
    run_recovery_ablation,
    run_scheduler_ablation,
)
from repro.experiments.baseline import run_baseline
from repro.experiments.drops import run_drops
from repro.experiments.figure5 import run_figure5
from repro.experiments.size_estimation import run_size_estimation
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.viz import degree_summary, wire_timeline


def assert_claims_well_formed(result):
    claims = result.claims()
    assert claims
    for text, holds in claims:
        assert isinstance(text, str) and text
        assert isinstance(holds, bool)


def test_baseline_structure():
    result = run_baseline(n_loads=4)
    assert result.n == 4
    assert 0 <= result.html_nonmux_pct <= 100
    assert 0 <= result.image_mean_degree <= 1
    text = result.table().to_text()
    assert "HTML" in text
    assert_claims_well_formed(result)


def test_table1_structure():
    result = run_table1(n_per_point=2, jitter_values=(0.0, 0.05))
    assert [p.jitter_s for p in result.points] == [0.0, 0.05]
    assert result.points[0].retx_increase_pct == 0.0
    assert "Table I" in result.table().to_text()
    assert_claims_well_formed(result)


def test_table1_netem_style():
    result = run_table1(n_per_point=2, jitter_values=(0.05,), style="netem")
    assert result.style == "netem"
    assert_claims_well_formed(result)


def test_figure5_structure():
    result = run_figure5(n_per_point=2, bandwidths=(800e6,))
    point = result.points[0]
    assert point.bandwidth_bps == 800e6
    assert point.mean_duration_s > 0
    assert "bandwidth" in result.table().to_text()
    assert_claims_well_formed(result)


def test_drops_structure():
    result = run_drops(n_per_point=2, drop_rates=(0.8,))
    point = result.points[0]
    assert 0 <= point.html_serialized_pct <= 100
    assert "drop rate" in result.table().to_text()
    assert_claims_well_formed(result)


def test_table2_structure():
    result = run_table2(n_loads=3)
    assert len(result.single_pct) == 9
    assert len(result.all_pct) == 9
    assert all(result.single_pct[i] >= result.all_pct[i]
               for i in range(9))
    assert "Table II" in result.table().to_text()
    assert_claims_well_formed(result)


def test_size_estimation_runs():
    result = run_size_estimation()
    assert result.serialized_exact
    assert not result.multiplexed_exact
    assert result.claims() == [("serialized case recovers both sizes", True),
                               ("multiplexed case does not", True)]


def test_scheduler_ablation_structure():
    result = run_scheduler_ablation(n_per_point=2,
                                    schedulers=("round-robin", "fifo"))
    assert [p.scheduler for p in result.points] == ["round-robin", "fifo"]
    assert_claims_well_formed(result)


def test_dupserve_ablation_structure():
    result = run_dupserve_ablation(n_per_point=2)
    by_mode = {p.serve_duplicates: p for p in result.points}
    assert by_mode[False].duplicate_serves_per_load == 0.0
    assert_claims_well_formed(result)


def test_recovery_ablation_structure():
    result = run_recovery_ablation(n_per_point=2)
    assert [p.stack for p in result.points] == ["modern", "legacy-2020"]
    assert_claims_well_formed(result)


def test_legacy_tcp_config_flags():
    config = legacy_tcp_config()
    assert not config.enable_tlp
    assert not config.enable_rack
    assert config.rto_backoff_cap == 64


def test_wire_timeline_renders():
    from repro.experiments.session import SessionConfig, run_session
    result = run_session(SessionConfig(seed=0))
    text = wire_timeline(result.tx_log, width=60)
    assert "#" in text
    lines = text.splitlines()
    assert all(len(line) <= 120 for line in lines)


def test_wire_timeline_empty_window():
    assert "no transmissions" in wire_timeline([], width=40)


def test_degree_summary_renders():
    from repro.experiments.session import SessionConfig, run_session
    from repro.website.isidewith import HTML_PATH
    result = run_session(SessionConfig(seed=0))
    text = degree_summary(result.tx_log, [HTML_PATH, "/nope"])
    assert "degree" in text
    assert "(not served)" in text


def test_planner_plan_attack():
    from repro.core.planner import plan_attack
    from repro.website.isidewith import build_isidewith_site
    site = build_isidewith_site()
    config = plan_attack([o.size for o in site.objects.values()], rtt_s=0.03)
    config.validate()
    # In the ballpark of the paper's hand-tuned 50/80 ms.
    assert 0.02 <= config.spacing_s <= 0.12
    assert config.serialize_spacing_s >= config.spacing_s
    with pytest.raises(ValueError):
        plan_attack([], rtt_s=0.03)


def test_fingerprint_seed_offsets_every_dataset(monkeypatch):
    import numpy as np

    from repro.experiments import fingerprinting

    passive_seeds, datasets = [], []
    monkeypatch.setattr(
        fingerprinting, "_passive_partial_rates",
        lambda n_loads, base_seed: passive_seeds.append(base_seed) or (0, 0))
    monkeypatch.setattr(fingerprinting, "_evaluate",
                        lambda dataset: datasets.append(dataset) or {})
    for seed in (0, 1):
        fingerprinting.run_fingerprinting(n_loads=2, n_pages=2,
                                          loads_per_page=1, base_seed=seed)
    assert passive_seeds == [700, 701]
    # attack / jitter / none first-party sets, then the H1 and H2 page sets.
    assert len(datasets) == 10
    for old, new in zip(datasets[:5], datasets[5:]):
        assert old.meta == new.meta
        assert not (np.array_equal(old.X, new.X)
                    and np.array_equal(old.y, new.y))
