"""Attack state machine and end-to-end adversary tests."""

import pytest

from repro.core.adversary import Http2SerializationAttack
from repro.core.phases import (
    AttackConfig,
    AttackPhase,
    jitter_only_config,
    jitter_plus_throttle_config,
    uniform_delay_config,
)
from repro.experiments.session import SessionConfig, run_session
from repro.simnet.engine import Simulator
from repro.simnet.topology import StandardTopology
from repro.website.isidewith import HTML_PATH


def test_config_validation():
    AttackConfig().validate()
    with pytest.raises(ValueError):
        AttackConfig(spacing_s=-1).validate()
    with pytest.raises(ValueError):
        AttackConfig(drop_rate=1.5).validate()
    with pytest.raises(ValueError):
        AttackConfig(trigger_request_index=0).validate()
    with pytest.raises(ValueError):
        AttackConfig(phase1_style="chaos").validate()


def test_config_factories():
    jitter = jitter_only_config(0.05)
    assert jitter.trigger_request_index is None
    assert jitter.throttle_bps_at_trigger is None
    throttled = jitter_plus_throttle_config(0.05, 8e8)
    assert throttled.throttle_bps_at_start == 8e8
    uniform = uniform_delay_config(0.05)
    assert uniform.uniform_delay_s == 0.05
    assert uniform.spacing_s == 0.0
    assert AttackConfig().trigger_request_index == 6


def test_attach_installs_phase1_policies():
    sim = Simulator()
    topo = StandardTopology(sim)
    attack = Http2SerializationAttack(sim, topo.middlebox, topo.trace,
                                      AttackConfig())
    attack.attach()
    assert attack.phase == AttackPhase.SPACING
    assert attack.controller._spacing is not None


def test_attach_twice_rejected():
    sim = Simulator()
    topo = StandardTopology(sim)
    attack = Http2SerializationAttack(sim, topo.middlebox, topo.trace,
                                      AttackConfig())
    attack.attach()
    with pytest.raises(RuntimeError):
        attack.attach()


def test_full_pipeline_reaches_serialize_phase():
    result = run_session(SessionConfig(seed=3, attack=AttackConfig()))
    phases = result.report.phase_times
    assert set(phases) >= {"spacing", "disrupt", "serialize"}
    assert phases["spacing"] <= phases["disrupt"] <= phases["serialize"]


def test_trigger_fires_on_sixth_get():
    result = run_session(SessionConfig(seed=3, attack=AttackConfig()))
    # The 6th GET is the result HTML, requested ~0.5 s into the load.
    assert 0.4 <= result.report.phase_times["disrupt"] <= 1.0


def test_jitter_only_never_disrupts():
    result = run_session(SessionConfig(seed=3,
                                       attack=jitter_only_config(0.05)))
    assert "disrupt" not in result.report.phase_times


def test_report_contains_estimates_and_requests():
    result = run_session(SessionConfig(seed=3, attack=AttackConfig()))
    report = result.report
    assert report.requests_observed >= 6
    assert len(report.all_estimates) > 5
    assert all(e.end_time >= report.phase_times["serialize"]
               for e in report.window_estimates)


def test_attack_decodes_permutation_majority_of_loads():
    hits = 0
    loads = 6
    for seed in range(loads):
        result = run_session(SessionConfig(seed=seed, attack=AttackConfig()))
        sequence = [label for label in result.report.predicted_labels
                    if label != "html"]
        if sequence == list(result.permutation):
            hits += 1
    assert hits >= loads // 2


def test_attack_serializes_html_in_majority_of_loads():
    hits = sum(
        run_session(SessionConfig(seed=seed,
                                  attack=AttackConfig())).serialized(HTML_PATH)
        for seed in range(6))
    assert hits >= 3


def test_passive_observer_cannot_decode():
    """Control: without the attack, the size side-channel fails."""
    from repro.core.estimator import SizeEstimator
    from repro.core.predictor import ObjectPredictor
    from repro.experiments.session import isidewith_size_map
    hits = 0
    for seed in range(5):
        result = run_session(SessionConfig(seed=seed))
        estimates = SizeEstimator().estimate_from_trace(result.trace)
        size_map = isidewith_size_map(result.site)
        predictor = ObjectPredictor(size_map)
        parties = [p.label for p in predictor.predict_burst(
            estimates, [l for l in size_map.labels if l != "html"])]
        if parties == list(result.permutation):
            hits += 1
    assert hits <= 1
