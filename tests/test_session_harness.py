"""Every session builder runs on the one testbed, and runs clean armed.

``repro.experiments.session.SessionRig`` is the only place a simulator and
topology are built, monitors armed and a run ended.  Patching it once
arms the runtime monitors (raise mode) under every builder: each cell
must then raise no violation, sweep its suite at the end, and return
exactly the metrics of its unarmed run (monitors only observe).
"""

import ast
from pathlib import Path

import pytest

from repro.attacks import ATTACK_KINDS
from repro.experiments import (
    dos_eval,
    fingerprinting,
    quic_transfer,
    size_estimation,
    streaming,
    table2,
)
from repro.experiments.session import SessionRig
from repro.invariants import MonitorSuite
from repro.simnet.topology import TopologyConfig

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "src" / "repro" / "experiments" / "session.py"

#: name -> (cell, whether its stack has HTTP/2 endpoints to watch).
CELLS = {
    "table2": (lambda: table2.run_cell(0), True),
    "streaming": (lambda: streaming.run_cell(0, 3, 0.5), True),
    "quic_transfer": (lambda: quic_transfer.run_cell(0, 0.08), False),
    "size_estimation_serialized": (
        lambda: size_estimation.run_cell(size_estimation.SEED,
                                         size_estimation.SERIALIZED_GAP_S),
        True),
    "size_estimation_multiplexed": (
        lambda: size_estimation.run_cell(size_estimation.SEED,
                                         size_estimation.MULTIPLEXED_GAP_S),
        True),
    "fingerprinting_h1": (lambda: fingerprinting.page_cell(0, 0, "h1", 4),
                          False),
    "dos_control": (lambda: dos_eval.run_cell(0, dos_eval.CONTROL_KIND,
                                              "open", 0.0, None), True),
}
CELLS.update(
    (f"dos_{kind}_{profile}",
     (lambda kind=kind, profile=profile: dos_eval.run_cell(
         0, kind, profile, 1.0, dos_eval.attack_spec(kind, 1.0).to_jsonable()),
      True))
    for kind in ATTACK_KINDS for profile in dos_eval.PROFILES)


def _arm(monkeypatch):
    """Arm every testbed built from now on; returns the list of rigs and
    the number of end-of-run sweeps each suite ran."""
    rigs, sweeps = [], {}
    init, finalize = SessionRig.__init__, MonitorSuite.finalize

    def armed_init(self, seed, topology, monitors):
        init(self, seed, topology, True)
        rigs.append(self)

    def counted_finalize(suite):
        sweeps[id(suite)] = sweeps.get(id(suite), 0) + 1
        return finalize(suite)

    monkeypatch.setattr(SessionRig, "__init__", armed_init)
    monkeypatch.setattr(MonitorSuite, "finalize", counted_finalize)
    return rigs, sweeps


@pytest.mark.parametrize("name", sorted(CELLS))
def test_builder_runs_clean_and_identical_with_monitors_armed(name,
                                                             monkeypatch):
    cell, http2 = CELLS[name]
    plain = cell()
    rigs, sweeps = _arm(monkeypatch)
    assert cell() == plain
    [rig] = rigs
    suite = rig.suite
    assert suite.mode == "raise" and suite.violations == []
    assert sweeps == {id(suite): 1}
    assert len(suite._links) == 4
    # Both HTTP/2 endpoints are watched; HTTP/1.1 and QUIC have no
    # endpoint monitors.
    watched = [label for label, _codec in suite._hpack]
    assert watched == (["server.hpack", "client.hpack"] if http2 else [])


def test_run_until_steps_to_the_limit_then_runs_the_grace_period():
    rig = SessionRig(0, TopologyConfig(), monitors=False)
    assert rig.suite is None
    # Done before the first step: the grace period alone.
    rig.run_until(lambda: True, 1.0, step_s=0.5)
    assert abs(rig.sim.now - 0.3) < 1e-9
    # The last step stops at the limit, then the grace period runs.
    steps = []
    rig.run_until(lambda: steps.append(rig.sim.now) and False, 1.2,
                  step_s=0.5)
    assert steps == pytest.approx([0.3, 0.8, 1.2])
    assert abs(rig.sim.now - 1.5) < 1e-9


def test_only_the_harness_builds_a_testbed():
    """``Simulator(...)`` and ``StandardTopology(...)`` are called in
    ``src/repro`` only inside the harness, so a new experiment cannot
    hand-build a testbed that skips monitor arming or the grace
    period."""
    calls = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path == HARNESS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                if callee in ("Simulator", "StandardTopology"):
                    calls.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                                 f"{callee}(...)")
    assert not calls, ("build the testbed with "
                       f"repro.experiments.session.SessionRig: {calls}")
