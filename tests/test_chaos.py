"""The seeded chaos harness: deterministic generation, clean cells on
the in-tree stack, failure minimization down to a written reproducer,
and the CLI's exit-code contract."""

import json

import pytest

from repro.cli import main
from repro.experiments.chaos import (
    ChaosSite,
    run_cell,
    run_chaos,
    shrink_failure,
    write_reproducer,
    ChaosFinding,
)
from repro.experiments.runner import RunCache
from repro.http2 import flow_control
from repro.invariants import (
    CHAOS_DEFENSES,
    ChaosSpec,
    generate_spec,
    shrink_candidates,
)


# -- generation -------------------------------------------------------------

def test_generate_spec_is_deterministic():
    assert generate_spec(0, 3) == generate_spec(0, 3)
    assert generate_spec(0, 3) != generate_spec(0, 4)
    assert generate_spec(0, 3) != generate_spec(1, 3)


def test_spec_json_roundtrip():
    spec = generate_spec(5, 2)
    assert ChaosSpec.from_jsonable(spec.to_jsonable()) == spec
    # And it survives an actual JSON encode/decode (the reproducer path).
    assert ChaosSpec.from_jsonable(
        json.loads(json.dumps(spec.to_jsonable()))) == spec


def test_generated_specs_are_valid():
    for i in range(20):
        spec = generate_spec(0, i)
        assert spec.defense in CHAOS_DEFENSES
        assert spec.html_size >= 2_000
        assert all(size >= 400 for size in spec.object_sizes)
        for event in spec.fault_events:
            assert event["at_s"] >= 0


def test_chaos_site_plans_cover_every_object():
    site = ChaosSite(10_000, (500, 600, 700))
    import random
    plan = site.plan_load(random.Random(0))
    assert sorted(plan.uncached_paths()) == sorted(site.objects)


# -- cells ------------------------------------------------------------------

def test_chaos_cells_run_clean_on_the_intree_stack():
    for i in range(3):
        spec = generate_spec(0, i)
        metrics = run_cell(spec.seed, spec.to_jsonable())
        assert metrics["violation"] is None
        assert metrics["ok"]


def test_run_chaos_campaign_clean():
    result = run_chaos(seeds=2, master_seed=0, workers=0,
                       cache=RunCache(enabled=False))
    assert result.clean
    assert result.findings == [] and result.crashes == []


# -- shrinking --------------------------------------------------------------

def test_shrink_candidates_reduce_monotonically():
    spec = generate_spec(0, 1)
    for description, candidate in shrink_candidates(spec):
        assert isinstance(description, str) and description
        smaller = (len(candidate.fault_events) < len(spec.fault_events)
                   or len(candidate.object_sizes) < len(spec.object_sizes)
                   or (spec.attack and not candidate.attack)
                   or candidate.defense != spec.defense
                   or candidate.natural_jitter_mean_s
                   < spec.natural_jitter_mean_s
                   or candidate.natural_loss_rate < spec.natural_loss_rate
                   or candidate.max_reconnects < spec.max_reconnects
                   or candidate.scheduler != spec.scheduler)
        assert smaller


def test_broken_branch_is_caught_shrunk_and_written(monkeypatch, tmp_path):
    """End to end: a deliberately broken flow-control branch trips the
    monitor, the shrinker minimizes the failing spec, and the minimized
    reproducer (a) is written to disk and (b) still reproduces."""
    orig = flow_control.ReceiveWindowManager.on_data

    def overgrant(self, nbytes):
        increment = orig(self, nbytes)
        return increment + 70_000 if increment else increment

    monkeypatch.setattr(flow_control.ReceiveWindowManager, "on_data",
                        overgrant)

    spec = generate_spec(0, 4)
    metrics = run_cell(spec.seed, spec.to_jsonable())
    assert metrics["violation"] is not None
    code = metrics["violation"]["code"]

    minimized, steps, runs = shrink_failure(spec, code, budget=60)
    assert runs <= 60
    assert len(minimized.fault_events) <= len(spec.fault_events)
    assert len(minimized.object_sizes) <= len(spec.object_sizes)
    # The minimized spec still reproduces the same violation.
    again = run_cell(minimized.seed, minimized.to_jsonable())
    assert again["violation"] is not None
    assert again["violation"]["code"] == code

    finding = ChaosFinding(index=0, violation=metrics["violation"],
                           spec=spec, minimized=minimized,
                           shrink_steps=steps, shrink_runs=runs)
    path = write_reproducer(tmp_path, finding)
    saved = json.loads(path.read_text(encoding="utf-8"))
    assert saved["violation"]["code"] == code
    assert ChaosSpec.from_jsonable(saved["spec"]) == minimized


# -- CLI exit codes ---------------------------------------------------------

def test_cli_rejects_nonpositive_seeds(capsys):
    assert main(["chaos", "--seeds", "0"]) == 2
    assert "--seeds" in capsys.readouterr().err


def test_cli_rejects_nonpositive_budget(capsys):
    assert main(["chaos", "--budget", "-1"]) == 2
    assert "--budget" in capsys.readouterr().err


def test_cli_rejects_non_integer_seed():
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "--seed", "not-an-int"])
    assert excinfo.value.code == 2


def test_cli_rejects_invalid_fault_plan(tmp_path, capsys):
    bad = tmp_path / "plan.json"
    bad.write_text('{"kind": "link_down"}', encoding="utf-8")
    assert main(["chaos", "--plan", str(bad)]) == 2
    assert "fault plan" in capsys.readouterr().err

    bad.write_text("not json", encoding="utf-8")
    assert main(["chaos", "--plan", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err

    bad.write_text('[{"kind": "warp-core-breach", "at_s": 1.0}]',
                   encoding="utf-8")
    assert main(["chaos", "--plan", str(bad)]) == 2
    assert "warp-core-breach" in capsys.readouterr().err


def test_cli_rejects_invalid_replay_spec(tmp_path, capsys):
    bad = tmp_path / "spec.json"
    bad.write_text('{"seed": 1}', encoding="utf-8")
    assert main(["chaos", "--replay", str(bad)]) == 2
    assert "chaos spec" in capsys.readouterr().err


def test_cli_replays_a_clean_spec(tmp_path, capsys):
    spec = generate_spec(0, 0)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"spec": spec.to_jsonable()}),
                    encoding="utf-8")
    assert main(["chaos", "--replay", str(path)]) == 0
    assert "all invariants held" in capsys.readouterr().out
