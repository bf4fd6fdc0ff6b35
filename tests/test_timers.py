"""TimerWheel: named one-shot deadlines on the simulator clock.

The contract the hardening layer leans on: re-arm replaces, cancel is
idempotent, the fire path removes the handle before the callback runs,
and -- crucially for byte-identity -- a wheel with nothing armed
schedules zero simulator events.
"""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.timers import TimerWheel


def test_armed_timer_fires_once_with_its_args():
    sim = Simulator(seed=1)
    wheel = TimerWheel(sim)
    hits = []
    wheel.arm("deadline", 2.0, hits.append, "expired")
    assert "deadline" in wheel._armed
    sim.run(until=10.0)
    assert hits == ["expired"]
    assert wheel.fired == 1
    assert not "deadline" in wheel._armed
    assert len(wheel._armed) == 0


def test_cancel_disarms_and_is_idempotent():
    sim = Simulator(seed=1)
    wheel = TimerWheel(sim)
    hits = []
    wheel.arm("deadline", 2.0, hits.append, "expired")
    wheel.cancel("deadline")
    wheel.cancel("deadline")  # idempotent: second cancel is a no-op
    wheel.cancel("never-armed")
    sim.run(until=10.0)
    assert hits == []
    assert wheel.cancelled == 1
    assert wheel.fired == 0


def test_rearm_replaces_the_previous_deadline():
    sim = Simulator(seed=1)
    wheel = TimerWheel(sim)
    hits = []
    wheel.arm("deadline", 1.0, hits.append, "first")
    wheel.arm("deadline", 5.0, hits.append, "second")
    assert len(wheel._armed) == 1
    sim.run(until=2.0)
    assert hits == []  # the 1.0s deadline was replaced, not kept
    sim.run(until=10.0)
    assert hits == ["second"]
    assert wheel.cancelled == 1 and wheel.fired == 1


def test_callback_may_rearm_its_own_name():
    sim = Simulator(seed=1)
    wheel = TimerWheel(sim)
    ticks = []

    def tick() -> None:
        ticks.append(sim.now)
        if len(ticks) < 3:
            wheel.arm("tick", 1.0, tick)

    wheel.arm("tick", 1.0, tick)
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]
    assert wheel.fired == 3 and wheel.cancelled == 0


def test_cancel_all_clears_every_deadline():
    sim = Simulator(seed=1)
    wheel = TimerWheel(sim)
    hits = []
    for name in ("a", "b", "c"):
        wheel.arm(name, 1.0, hits.append, name)
    wheel.cancel_all()
    sim.run(until=10.0)
    assert hits == []
    assert len(wheel._armed) == 0
    assert wheel.cancelled == 3


def test_negative_delay_is_rejected():
    wheel = TimerWheel(Simulator(seed=1))
    with pytest.raises(ValueError, match="delay_s must be >= 0"):
        wheel.arm("deadline", -0.1, lambda: None)


def test_idle_wheel_schedules_zero_events():
    # The byte-identity contract: owning a wheel costs nothing.
    sim = Simulator(seed=1)
    TimerWheel(sim)
    sim.run(until=100.0)
    assert sim.processed_events == 0
