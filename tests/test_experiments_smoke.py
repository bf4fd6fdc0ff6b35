"""Small-N smoke tests of every experiment harness.

Each harness is exercised end to end at tiny repetition counts: these
assert structure and sanity, not the calibrated numbers.  The paper's
shape claims are judged by each result's ``claims()`` at the artefact's
default N (``python -m repro <artefact>`` prints them and exits 1 when
one fails); here they only have to be well formed.
"""

from repro.experiments import ablations, drops, table1, viz
from repro.experiments.ablations import (
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
from repro.tcp.connection import (
    LEGACY_RTO_BACKOFF_CAP,
    RTO_BACKOFF_CAP,
    TcpConfig,
)
from tests.conftest import make_rig


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


def test_table1_structure(monkeypatch):
    with monkeypatch.context() as patch:  # the claims read the full sweep
        patch.setattr(table1, "JITTER_VALUES_S", (0.0, 0.05))
        result = run_table1(n_per_point=2)
    assert [p.jitter_s for p in result.points] == [0.0, 0.05]
    assert result.points[0].retx_increase_pct == 0.0
    assert "Table I" in result.table().to_text()
    assert_claims_well_formed(result)


def test_table1_netem_style(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(table1, "JITTER_VALUES_S", (0.05,))
        result = run_table1(n_per_point=2, style="netem")
    assert result.style == "netem"
    assert_claims_well_formed(result)


def test_figure5_structure():
    result = run_figure5(n_per_point=2, bandwidths=(800e6,))
    point = result.points[0]
    assert point.bandwidth_bps == 800e6
    assert point.mean_duration_s > 0
    assert "bandwidth" in result.table().to_text()
    assert_claims_well_formed(result)


def test_drops_structure(monkeypatch):
    monkeypatch.setattr(drops, "DROP_RATES", (0.8,))
    result = run_drops(n_per_point=2)
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


def test_scheduler_ablation_structure(monkeypatch):
    monkeypatch.setattr(ablations, "SCHEDULERS", ("round-robin", "fifo"))
    result = run_scheduler_ablation(n_per_point=2)
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
    # One switch selects the 2020-era stack: textbook backoff here, and
    # no tail-loss probe or RACK where the connection recovers.
    rig = make_rig(client_tcp=TcpConfig(legacy_recovery=True))
    legacy = rig.client_tcp.connect("server", 443, lambda conn: None)
    modern = rig.server_tcp.connect("client", 443, lambda conn: None)
    assert legacy.rto.backoff_cap == LEGACY_RTO_BACKOFF_CAP == 64
    assert modern.rto.backoff_cap == RTO_BACKOFF_CAP == 2


def test_wire_timeline_renders(monkeypatch):
    from repro.experiments.session import SessionConfig, run_session
    monkeypatch.setattr(viz, "TIMELINE_COLUMNS", 60)
    result = run_session(SessionConfig(seed=0))
    text = wire_timeline(result.tx_log)
    assert "#" in text
    lines = text.splitlines()
    assert all(len(line) <= 120 for line in lines)


def test_wire_timeline_empty_window():
    assert "no transmissions" in wire_timeline([])


def test_degree_summary_renders():
    from repro.experiments.session import SessionConfig, run_session
    from repro.website.isidewith import HTML_PATH
    result = run_session(SessionConfig(seed=0))
    text = degree_summary(result.tx_log, [HTML_PATH, "/nope"])
    assert "degree" in text
    assert "(not served)" in text


def test_fingerprint_seed_offsets_every_dataset(monkeypatch):
    from repro.experiments import fingerprinting
    from repro.experiments.runner import RunCache

    seeds = []

    def stub(dataset, **metrics):
        def cell(seed, **params):
            key = params.get("mode") or params.get("protocol") or dataset
            seeds.append((key, seed))
            return dict(metrics, features=[float(seed)],
                        label=params.get("page_id", "party"))
        return cell

    monkeypatch.setattr(fingerprinting, "passive_partial_cell",
                        stub("passive", first_hit=False, order_hit=False))
    monkeypatch.setattr(fingerprinting, "first_party_cell",
                        stub("first party", decoded_hit=False))
    monkeypatch.setattr(fingerprinting, "page_cell", stub("page"))
    monkeypatch.setattr(fingerprinting, "_evaluate", lambda dataset: {})
    runs = {}
    for base_seed in (0, 1):
        seeds.clear()
        fingerprinting.run_fingerprinting(n_loads=2, n_pages=2,
                                          loads_per_page=1,
                                          base_seed=base_seed,
                                          cache=RunCache.disabled())
        runs[base_seed] = list(seeds)
    # Every dataset ran: passive, attack / jitter / none first-party
    # sets, then the H1 and H2 page sets.
    datasets_run = [key for key, _ in runs[0]]
    assert sorted(set(datasets_run)) == ["attack", "h1", "h2", "jitter",
                                         "none", "passive"]
    assert [seed for key, seed in runs[0] if key == "passive"][0] == 700
    # The offset reaches every cell of every dataset.
    assert runs[1] == [(key, seed + 1) for key, seed in runs[0]]


def test_fingerprint_claims_fail_without_cross_validated_accuracies():
    from repro.experiments.fingerprinting import FingerprintingResult

    # Too few first-party loads to split into two folds: no accuracies.
    result = FingerprintingResult(
        decoded_first_party_pct=100.0, passive_partial_first_pct=0.0,
        passive_partial_order_pct=0.0, first_party_attack={},
        first_party_jitter={}, first_party_none={},
        page_h1={"kNN (k=3)": 1.0}, page_h2={"kNN (k=3)": 1.0})
    verdicts = dict(result.claims())
    assert verdicts["no adversary: best classifier < 45 % on the first party"] \
        is False
    assert sum(verdicts.values()) == 3
    assert "page id, HTTP/2" in result.table().to_text()
