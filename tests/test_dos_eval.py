"""The ``repro dos`` experiment family: cells, aggregation, verdicts.

A cell is one attacked (or control) legitimate page load; the sweep's
verdict lines are the CI dos-smoke contract, so their exact grep
tokens are pinned here.
"""

from repro.experiments import dos_eval
from repro.experiments.dos_eval import (
    CONTROL_KIND,
    attack_spec,
    run_cell,
    run_dos_eval,
    server_config,
)
from repro.experiments.runner import RunCache, RunSpec


def test_control_cell_loads_cleanly_on_a_slow_link():
    cell = run_cell(0, CONTROL_KIND, "open", 0.0, None)
    assert cell["goodput_pct"] == 100.0
    assert not cell["detected"]
    assert not cell["exhausted"]


def test_open_server_is_exhausted_and_detected():
    spec = attack_spec("slow_headers", 1.0)
    cell = run_cell(0, "slow_headers", "open", 1.0, spec.to_jsonable())
    assert cell["exhausted"]
    assert cell["detected"]
    assert "DOS_SLOW_HEADERS" in cell["detect_codes"]


def test_hardened_server_keeps_goodput_and_still_detects():
    spec = attack_spec("slow_headers", 1.0)
    cell = run_cell(0, "slow_headers", "hardened", 1.0, spec.to_jsonable())
    assert cell["goodput_pct"] >= 90.0
    assert cell["detected"]
    assert cell["timed_out_streams"] > 0  # the hardening actually acted


def test_cell_is_deterministic():
    spec = attack_spec("ping_flood", 0.5).to_jsonable()
    assert run_cell(3, "ping_flood", "open", 0.5, spec) == \
        run_cell(3, "ping_flood", "open", 0.5, spec)


def test_attack_spec_is_part_of_the_cache_key():
    cell = "repro.experiments.dos_eval:run_cell"
    base = dict(kind="slow_post", profile="open", intensity=1.0)
    a = RunSpec.make(cell, 0, attack=attack_spec("slow_post",
                                                 1.0).to_jsonable(), **base)
    b = RunSpec.make(cell, 0, attack=attack_spec("slow_post",
                                                 0.5).to_jsonable(), **base)
    assert a.key("v") != b.key("v")


def test_profiles_are_validated():
    try:
        server_config("medium-rare")
    except ValueError as error:
        assert "unknown server profile" in str(error)
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")


def test_sweep_aggregates_and_renders_verdicts(monkeypatch):
    monkeypatch.setattr(dos_eval, "KINDS", ("slow_preamble",))
    monkeypatch.setattr(dos_eval, "INTENSITIES", (1.0,))
    result = run_dos_eval(n_per_point=1, workers=0,
                          cache=RunCache.disabled())
    assert not result.failures
    # 2 profiles x (1 attack + 1 control) = 4 points.
    assert len(result.points) == 4
    text = result.table().to_text()
    assert "slow_preamble" in text and "hardened" in text

    texts, verdicts = zip(*result.claims())
    assert texts[0] == "dos: every attack cell flagged (2/2)"
    assert texts[1] == "dos: no control false positives (0/2)"
    assert texts[2].startswith("dos: hardened goodput >= 90% (min ")
    assert texts[3] == ("dos: unhardened server exhausted at top intensity "
                        "(1/1)")
    assert verdicts == (True, True, True, True)
