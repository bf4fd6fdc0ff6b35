"""Fault-injection subsystem: plans, the injector, end-to-end recovery."""

import pytest

from repro.browser.browser import BrowserConfig
from repro.experiments.session import SessionConfig, run_session
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    plan_for_intensity,
)
from repro.simnet.engine import Simulator
from repro.simnet.middlebox import UniformDelayPolicy
from repro.simnet.topology import StandardTopology


# -- plan validation and round-trip ----------------------------------------

def test_plan_json_roundtrip():
    plan = FaultPlan((
        FaultEvent("link_down", at_s=1.0, duration_s=0.5,
                   target="mbox->client"),
        FaultEvent("server_abort", at_s=2.0),
    ))
    plan.validate()
    assert FaultPlan.from_jsonable(plan.to_jsonable()) == plan


def test_plan_coerce_accepts_plan_list_and_none():
    plan = FaultPlan((FaultEvent("server_stall", 1.0, 0.2),))
    assert FaultPlan.coerce(None) is None
    assert FaultPlan.coerce(plan) is plan
    assert FaultPlan.coerce(plan.to_jsonable()) == plan
    with pytest.raises(TypeError):
        FaultPlan.coerce("link_down")


@pytest.mark.parametrize("event", [
    FaultEvent("power_cut", 1.0),                      # unknown kind
    FaultEvent("server_stall", -1.0, 0.2),             # negative onset
    FaultEvent("server_stall", 1.0, -0.2),             # negative duration
    FaultEvent("server_abort", 1.0, duration_s=0.5),   # instant kind
    FaultEvent("link_down", 1.0, 0.5),                 # missing target
    FaultEvent("server_stall", 1.0, 0.2, target="x"),  # spurious target
])
def test_plan_validation_rejects_bad_events(event):
    with pytest.raises(ValueError):
        FaultPlan((event,)).validate()


def test_plan_sorted_is_canonical():
    a = FaultEvent("server_stall", 2.0, 0.1)
    b = FaultEvent("middlebox_crash", 1.0, 0.1)
    assert FaultPlan((a, b)).sorted() == FaultPlan((b, a)).sorted()


def test_plan_for_intensity_is_deterministic():
    a = plan_for_intensity(0.5, seed=11)
    b = plan_for_intensity(0.5, seed=11)
    assert a == b
    assert a.to_jsonable() == b.to_jsonable()
    assert plan_for_intensity(0.5, seed=12) != a
    assert plan_for_intensity(0.0, seed=11) == FaultPlan()
    with pytest.raises(ValueError):
        plan_for_intensity(1.5, seed=0)


def test_plan_for_intensity_scales_event_count():
    low = plan_for_intensity(0.25, seed=3)
    high = plan_for_intensity(1.0, seed=3)
    assert 1 <= len(low) < len(high)
    high.validate()


# -- the injector against a live topology ----------------------------------

def test_injector_flaps_a_link():
    sim = Simulator(seed=1)
    topo = StandardTopology(sim)
    plan = FaultPlan((FaultEvent("link_down", at_s=0.5, duration_s=0.25,
                                 target="mbox->client"),))
    injector = FaultInjector(sim, topo, plan=plan)
    injector.arm()
    link = topo.links["mbox->client"]

    sim.run(until=0.6)
    assert not link.up
    sim.run(until=1.0)
    assert link.up
    assert injector.applied == [(0.5, "link_down", "mbox->client"),
                                (0.75, "link_up", "mbox->client")]


def test_injector_crashes_and_recovers_the_middlebox():
    sim = Simulator(seed=1)
    topo = StandardTopology(sim)
    policy = topo.middlebox.add_policy(UniformDelayPolicy(0.01))
    injector = FaultInjector(sim, topo, plan=FaultPlan((
        FaultEvent("middlebox_crash", at_s=0.2, duration_s=0.3),)))
    injector.arm()

    sim.run(until=0.3)
    assert topo.middlebox.failed
    assert topo.middlebox._policies == []  # policies dropped out
    sim.run(until=0.6)
    assert not topo.middlebox.failed
    assert topo.middlebox._policies == [policy]  # re-attached
    assert topo.middlebox.crashes == 1


def test_injector_rejects_unknown_link():
    sim = Simulator(seed=1)
    topo = StandardTopology(sim)
    injector = FaultInjector(sim, topo, plan=FaultPlan((
        FaultEvent("link_down", 1.0, 0.5, target="no-such-link"),)))
    with pytest.raises(ValueError, match="no-such-link"):
        injector.arm()


def test_injector_requires_server_for_server_faults():
    sim = Simulator(seed=1)
    topo = StandardTopology(sim)
    injector = FaultInjector(sim, topo, plan=FaultPlan((
        FaultEvent("server_abort", 1.0),)))
    with pytest.raises(ValueError, match="server"):
        injector.arm()


def test_injector_arms_once():
    sim = Simulator(seed=1)
    topo = StandardTopology(sim)
    injector = FaultInjector(sim, topo, plan=FaultPlan())
    injector.arm()
    with pytest.raises(RuntimeError):
        injector.arm()


# -- end-to-end recovery ----------------------------------------------------

def _faulted_config(seed: int, plan: FaultPlan,
                    max_reconnects: int = 2) -> SessionConfig:
    return SessionConfig(
        seed=seed,
        faults=plan.to_jsonable(),
        browser=BrowserConfig(max_reconnects=max_reconnects),
    )


def test_server_abort_mid_load_recovers_on_fresh_connection():
    plan = FaultPlan((FaultEvent("server_abort", at_s=0.5),))
    result = run_session(_faulted_config(seed=5, plan=plan))
    assert result.injector.applied == [(0.5, "server_abort", "")]
    assert result.load is not None
    assert result.load.reconnects >= 1
    assert result.load.success
    assert not result.broken


def test_server_abort_without_reconnects_breaks_the_load():
    plan = FaultPlan((FaultEvent("server_abort", at_s=0.5),))
    result = run_session(_faulted_config(seed=5, plan=plan,
                                         max_reconnects=0))
    assert result.broken


def test_max_reconnects_exhaustion_breaks_the_load():
    """More aborts than the reconnect budget: the browser spends every
    allowed reconnect, then the next abort is fatal."""
    plan = FaultPlan((
        FaultEvent("server_abort", at_s=0.4),
        FaultEvent("server_abort", at_s=0.9),
        FaultEvent("server_abort", at_s=1.4),
        FaultEvent("server_abort", at_s=1.9),
    ))
    result = run_session(_faulted_config(seed=5, plan=plan,
                                         max_reconnects=2))
    assert result.broken
    assert result.load is not None
    assert result.load.reconnects == 2  # the budget was fully spent


def test_reconnect_budget_above_abort_count_recovers():
    plan = FaultPlan((
        FaultEvent("server_abort", at_s=0.4),
        FaultEvent("server_abort", at_s=1.0),
    ))
    result = run_session(_faulted_config(seed=5, plan=plan,
                                         max_reconnects=5))
    assert not result.broken
    assert result.load.reconnects >= 2


def test_server_abort_during_tls_handshake_sends_no_goaway():
    """Regression: an abort landing while a (re)connection's TLS
    handshake was still in flight used to crash the simulation trying
    to send the best-effort GOAWAY on an unestablished session.  Such a
    connection must die with a bare FIN instead."""
    plan = FaultPlan((
        FaultEvent("server_abort", at_s=0.4),
        FaultEvent("server_abort", at_s=0.9),  # hits the reconnect handshake
        FaultEvent("server_abort", at_s=1.4),
        FaultEvent("server_abort", at_s=1.9),
    ))
    config = _faulted_config(seed=5, plan=plan, max_reconnects=2)
    config.monitors = True
    result = run_session(config)  # must not raise
    assert result.injector.applied[1] == (0.9, "server_abort", "")
    assert result.monitor.violations == []


def test_plan_for_intensity_zero_is_an_empty_valid_plan():
    plan = plan_for_intensity(0.0, seed=7)
    assert len(plan) == 0
    plan.validate()  # vacuously valid
    assert plan.to_jsonable() == []
    assert FaultPlan.coerce(plan.to_jsonable()) == plan
    # An empty plan arms nothing: the session runs injector-free.
    result = run_session(_faulted_config(seed=5, plan=plan))
    assert result.injector is None
    assert not result.broken


def test_server_stall_delays_but_does_not_break_the_load():
    plan = FaultPlan((FaultEvent("server_stall", at_s=0.3,
                                 duration_s=1.0),))
    faulted = run_session(_faulted_config(seed=5, plan=plan))
    clean = run_session(SessionConfig(seed=5))
    assert not faulted.broken
    assert faulted.server.stalls == 1
    assert faulted.load.duration_s > clean.load.duration_s


def test_middlebox_crash_blinds_the_trace():
    """While the gateway is down its taps see nothing: the adversary's
    capture has a hole exactly as wide as the outage."""
    plan = FaultPlan((FaultEvent("middlebox_crash", at_s=0.4,
                                 duration_s=0.3),))
    result = run_session(_faulted_config(seed=5, plan=plan))
    times = [p.time for p in result.trace.packets()]
    in_outage = [t for t in times if 0.4 <= t < 0.7]
    assert in_outage == []
    assert any(t < 0.4 for t in times)
    assert any(t >= 0.7 for t in times)


def test_fault_sessions_are_deterministic():
    plan = plan_for_intensity(1.0, seed=2)
    a = run_session(_faulted_config(seed=2, plan=plan))
    b = run_session(_faulted_config(seed=2, plan=plan))
    assert a.injector.applied == b.injector.applied
    assert a.processed_events == b.processed_events
    assert a.duration_s == b.duration_s
    load_a, load_b = a.load, b.load
    assert (load_a is None) == (load_b is None)
    if load_a is not None:
        assert load_a.completed_paths == load_b.completed_paths
        assert load_a.reconnects == load_b.reconnects
        assert [(e.time, e.path) for e in load_a.requests] == \
               [(e.time, e.path) for e in load_b.requests]
