"""Parallel grid runner: fan-out determinism, caching, invalidation."""

import json
import os
import weakref
from pathlib import Path

import pytest

from repro.experiments.runner import (
    GridTelemetry,
    RunCache,
    RunSpec,
    code_version,
    execute_spec,
    resolve_cell,
    run_grid,
)
from repro.simnet.engine import Simulator

#: Dotted paths workers resolve (this module is importable as a package
#: module because ``tests`` is a package and pytest runs from the repo
#: root).
TOY = "tests.test_runner:toy_cell"
TRACKED = "tests.test_runner:tracked_cell"
SESSION_CELL = "repro.experiments.table1:run_cell"
CYCLIC = "tests.test_runner:cyclic_session_cell"

#: Weak reference to the simulator the last ``cyclic_session_cell``
#: built in this process.
last_session = None


def toy_cell(seed: int, scale: float = 1.0, label: str = "x") -> dict:
    """Pure function of its spec -- stands in for a simulated run."""
    return {"value": seed * scale, "label": label,
            "sim_time_s": 0.001 * seed, "processed_events": seed + 1}


def tracked_cell(seed: int, marker_dir: str) -> dict:
    """Like toy_cell, but leaves a marker file proving it executed."""
    Path(marker_dir, f"{seed}.ran").touch()
    return {"value": seed}


def cyclic_session_cell(seed: int, fail: bool = False) -> dict:
    """Builds a simulator that is cyclic garbage once the cell ends, as a
    finished session is, and reports whether the previous call's
    simulator is still alive in this process."""
    # Leaking state across cells in one process is what this cell
    # observes.
    global last_session  # repro-lint: ignore[CACHE002]
    previous_alive = last_session is not None and last_session() is not None
    sim = Simulator(seed=seed)
    # A pending event whose callback holds the simulator holding it.
    sim.schedule(1.0, lambda: sim.now)
    last_session = weakref.ref(sim)
    # A session's worth of live allocation, held until the cell ends:
    # the simulator ages into the collector's oldest generation, which
    # only a full collection walks.
    churn = [[] for _ in range(50_000)]
    if fail:
        raise RuntimeError("cell failed")
    return {"previous_alive": previous_alive}


@pytest.fixture
def cache(tmp_path):
    return RunCache(root=tmp_path / "cache")


def test_spec_params_must_be_jsonable():
    with pytest.raises(TypeError):
        RunSpec.make(TOY, 0, bad=object())


def test_spec_key_is_stable_and_order_insensitive():
    a = RunSpec.make(TOY, 3, scale=2.0, label="y")
    b = RunSpec.make(TOY, 3, label="y", scale=2.0)
    assert a == b
    assert a.key("v1") == b.key("v1")
    assert a.key("v1") != a.key("v2")
    assert a.key("v1") != RunSpec.make(TOY, 4, scale=2.0, label="y").key("v1")


def test_resolve_cell_roundtrip():
    assert resolve_cell(TOY) is toy_cell
    with pytest.raises(ValueError):
        resolve_cell("no.colon.in.path")


def test_jobs_1_and_jobs_4_byte_identical(cache, tmp_path):
    specs = [RunSpec.make(TOY, seed, scale=0.5) for seed in range(8)]
    serial = run_grid(specs, workers=0, cache=RunCache(root=tmp_path / "a"))
    for workers in (1, 4):
        fanned = run_grid(specs, workers=workers,
                          cache=RunCache(root=tmp_path / f"w{workers}"))
        assert serial.executed == fanned.executed == 8
        assert json.dumps(serial.metrics()) == json.dumps(fanned.metrics())


def test_session_cell_survives_fanout_and_cache_roundtrip(tmp_path):
    """Real simulator cells: fan-out and cache recall agree byte-for-byte."""
    specs = [RunSpec.make(SESSION_CELL, seed, jitter_s=0.0, style="spacing")
             for seed in range(2)]
    serial = run_grid(specs, workers=0, cache=RunCache(root=tmp_path / "a"))
    fanned = run_grid(specs, workers=2, cache=RunCache(root=tmp_path / "b"))
    assert json.dumps(serial.metrics()) == json.dumps(fanned.metrics())
    # Second pass against the warm cache executes nothing and returns
    # identical metrics (the JSON round-trip loses nothing).
    warm = run_grid(specs, workers=0, cache=RunCache(root=tmp_path / "a"))
    assert warm.executed == 0
    assert warm.cache_hits == 2
    assert json.dumps(warm.metrics()) == json.dumps(serial.metrics())


def test_cache_hit_skips_execution(cache, tmp_path):
    markers = tmp_path / "markers"
    markers.mkdir()
    specs = [RunSpec.make(TRACKED, seed, marker_dir=str(markers))
             for seed in range(3)]

    first = run_grid(specs, workers=0, cache=cache)
    assert first.executed == 3
    assert len(list(markers.glob("*.ran"))) == 3

    for marker in markers.glob("*.ran"):
        marker.unlink()
    second = run_grid(specs, workers=0, cache=cache)
    assert second.executed == 0
    assert second.cache_hits == 3
    assert list(markers.glob("*.ran")) == []
    assert second.metrics() == first.metrics()


def test_cache_invalidates_when_spec_changes(cache):
    before = run_grid([RunSpec.make(TOY, 1, scale=1.0)], cache=cache)
    changed = run_grid([RunSpec.make(TOY, 1, scale=2.0)], cache=cache)
    assert before.executed == 1
    assert changed.executed == 1  # different spec -> different key
    again = run_grid([RunSpec.make(TOY, 1, scale=1.0)], cache=cache)
    assert again.executed == 0


def test_disabled_cache_always_executes(tmp_path):
    markers = tmp_path / "markers"
    markers.mkdir()
    specs = [RunSpec.make(TRACKED, 7, marker_dir=str(markers))]
    no_cache = RunCache.disabled()
    run_grid(specs, cache=no_cache)
    (markers / "7.ran").unlink()
    result = run_grid(specs, cache=no_cache)
    assert result.executed == 1
    assert (markers / "7.ran").exists()


def test_unwritable_cache_degrades_instead_of_crashing(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file where the cache root should be")
    broken = RunCache(root=blocker)
    result = run_grid([RunSpec.make(TOY, seed) for seed in range(2)],
                      cache=broken)
    assert result.executed == 2
    assert broken.enabled is False
    assert "run cache disabled" in capsys.readouterr().err


def test_failed_cache_write_leaves_no_temp_file(cache, monkeypatch, capsys):
    def disk_full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", disk_full)
    cache.put(RunSpec.make(TOY, 1).key("v1"), {"metrics": {"value": 1}})
    assert cache.enabled is False
    assert list(cache.root.rglob("*.tmp")) == []
    assert "run cache disabled" in capsys.readouterr().err


def test_corrupt_cache_record_reexecutes(cache):
    spec = RunSpec.make(TOY, 5)
    run_grid([spec], cache=cache)
    path = cache._path(spec.key(code_version()))
    path.write_text("{not json")
    result = run_grid([spec], cache=cache)
    assert result.executed == 1
    assert result.metrics()[0]["value"] == 5.0


def test_results_keep_spec_order_and_telemetry(cache):
    specs = [RunSpec.make(TOY, seed) for seed in (5, 1, 3)]
    result = run_grid(specs, workers=4, cache=cache)
    assert [r.spec.seed for r in result] == [5, 1, 3]
    telemetry = GridTelemetry().add(result)
    assert telemetry.cells == 3
    assert telemetry.executed == 3
    assert telemetry.processed_events == sum(s + 1 for s in (5, 1, 3))
    assert "3 cells" in telemetry.line()


# -- the cell boundary frees each session ------------------------------------

def test_inline_cell_frees_its_session_when_it_returns():
    execute_spec(RunSpec.make(CYCLIC, 0))
    assert last_session() is None


def test_inline_cell_frees_its_session_when_it_raises():
    with pytest.raises(RuntimeError, match="cell failed"):
        execute_spec(RunSpec.make(CYCLIC, 0, fail=True))
    assert last_session() is None
