"""Crash-tolerant runner: worker crashes, hangs, retries, resumption.

Cells here are deliberately hostile -- they kill their process, sleep
past their deadline, or raise -- to prove the grid isolates the damage
to the offending cell, reports a reason, and leaves the cache in a
state from which a rerun executes exactly the missing cells.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    GridError,
    GridTelemetry,
    RunCache,
    RunSpec,
    code_version,
    run_grid,
)

GOOD = "tests.test_runner_faults:good_cell"
CRASH = "tests.test_runner_faults:crash_cell"
HANG = "tests.test_runner_faults:hang_cell"
FLAKY = "tests.test_runner_faults:flaky_cell"
CRASH_ONCE = "tests.test_runner_faults:crash_once_cell"


def good_cell(seed: int, scale: float = 1.0) -> dict:
    return {"value": seed * scale, "sim_time_s": 0.001 * seed,
            "processed_events": seed + 1}


def crash_cell(seed: int) -> dict:
    """Dies without a Python exception -- like a segfault or OOM kill."""
    os._exit(23)


def hang_cell(seed: int) -> dict:
    """Never finishes on its own; only the deadline stops it."""
    time.sleep(300)
    return {}


def flaky_cell(seed: int, marker_dir: str = "") -> dict:
    """Raises on its first attempt, succeeds on the second."""
    marker = Path(marker_dir, f"flaky-{seed}")
    if not marker.exists():
        marker.touch()
        raise RuntimeError("transient failure")
    return {"value": seed}


def crash_once_cell(seed: int, marker_dir: str = "") -> dict:
    """Hard-crashes the worker on its first attempt only."""
    marker = Path(marker_dir, f"crash-{seed}")
    if not marker.exists():
        marker.touch()
        os._exit(23)
    return {"value": seed}


@pytest.fixture
def cache(tmp_path):
    return RunCache(root=tmp_path / "cache")


def test_worker_crash_is_isolated_to_its_cell(cache):
    specs = [RunSpec.make(GOOD, s) for s in range(3)]
    specs.insert(1, RunSpec.make(CRASH, 0))
    grid = run_grid(specs, workers=2, cache=cache, strict=False)
    assert len(grid.ok) == 3
    assert len(grid.failures) == 1
    assert "exit code 23" in grid.failures[0].error
    # Results stay in spec order, failure in place.
    assert [r.failed for r in grid] == [False, True, False, False]


def test_hung_cell_hits_its_deadline(cache):
    start = time.monotonic()
    grid = run_grid([RunSpec.make(HANG, 0), RunSpec.make(GOOD, 1)],
                    workers=2, cache=cache, cell_timeout_s=1.0, strict=False)
    assert time.monotonic() - start < 30
    assert len(grid.failures) == 1
    assert "timed out after 1" in grid.failures[0].error
    assert grid.ok[0].metrics["value"] == 1.0


def test_timeout_forces_isolation_even_serial(cache):
    """Inline (workers=0) with a deadline still cannot be wedged by a
    hung cell: the deadline moves it onto a one-worker pool."""
    grid = run_grid([RunSpec.make(HANG, 0)], workers=0, cache=cache,
                    cell_timeout_s=1.0, strict=False)
    assert grid.failures[0].error.startswith("timed out")


def test_strict_raises_grid_error_after_caching_successes(cache):
    specs = [RunSpec.make(GOOD, s) for s in range(3)]
    specs.append(RunSpec.make(CRASH, 0))
    with pytest.raises(GridError) as excinfo:
        run_grid(specs, workers=2, cache=cache)
    assert "exit code 23" in str(excinfo.value)
    assert len(excinfo.value.failures) == 1
    # The successes were cached before the raise: a rerun of just the
    # good cells executes nothing.
    warm = run_grid(specs[:3], workers=0, cache=cache)
    assert warm.executed == 0
    assert warm.cache_hits == 3


def test_resumed_sweep_executes_only_missing_cells(cache, tmp_path):
    """The acceptance scenario: crash + hang + good cells in one sweep;
    the rerun executes exactly the cells the first pass lost."""
    markers = tmp_path / "markers"
    markers.mkdir()
    specs = [RunSpec.make(GOOD, s) for s in range(3)]
    specs.append(RunSpec.make(CRASH_ONCE, 9, marker_dir=str(markers)))
    specs.append(RunSpec.make(HANG, 0))

    first = run_grid(specs, workers=3, cache=cache, cell_timeout_s=2.0,
                     strict=False)
    assert len(first.failures) == 2
    reasons = sorted(r.error.split(" (")[0] for r in first.failures)
    assert reasons[0].startswith("timed out")
    assert reasons[1].startswith("worker crashed")

    # Rerun everything except the hopeless hang: the three good cells
    # come from the cache, only the (now recovering) crasher executes.
    second = run_grid(specs[:4], workers=3, cache=cache, cell_timeout_s=2.0)
    assert second.cache_hits == 3
    assert second.executed == 1
    assert second.results[3].metrics["value"] == 9


def test_partial_sweep_matches_clean_serial_run(cache, tmp_path):
    """Surviving cells of a faulty parallel sweep are byte-identical to
    a clean serial run of the same specs."""
    good = [RunSpec.make(GOOD, s, scale=0.5) for s in range(4)]
    mixed = list(good)
    mixed.insert(2, RunSpec.make(CRASH, 0))
    faulty = run_grid(mixed, workers=3, cache=cache, strict=False)
    clean = run_grid(good, workers=0, cache=RunCache(root=tmp_path / "b"))
    assert json.dumps(faulty.metrics()) == json.dumps(clean.metrics())


def test_raising_cell_retries_with_backoff_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "RETRY_BACKOFF_S", 0.01)
    markers = tmp_path / "m1"
    markers.mkdir()
    spec = RunSpec.make(FLAKY, 4, marker_dir=str(markers))
    grid = run_grid([spec], workers=2, cache=RunCache.disabled(),
                    cell_timeout_s=10.0, retries=2)
    assert grid.results[0].attempts == 2
    assert grid.results[0].metrics["value"] == 4


def test_raising_cell_retries_serial_path(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "RETRY_BACKOFF_S", 0.01)
    markers = tmp_path / "m2"
    markers.mkdir()
    spec = RunSpec.make(FLAKY, 6, marker_dir=str(markers))
    grid = run_grid([spec], workers=0, cache=RunCache.disabled(),
                    retries=1)
    assert grid.results[0].attempts == 2


def test_exhausted_retries_report_the_last_reason(cache, monkeypatch):
    monkeypatch.setattr(runner, "RETRY_BACKOFF_S", 0.01)
    grid = run_grid([RunSpec.make(CRASH, 0)], workers=0, cache=cache,
                    cell_timeout_s=5.0, retries=1, strict=False)
    failure = grid.failures[0]
    assert failure.attempts == 2
    assert "exit code 23" in failure.error


def test_failed_cells_are_never_cached(cache):
    run_grid([RunSpec.make(CRASH, 0)], workers=0, cache=cache,
             cell_timeout_s=5.0, strict=False)
    key = RunSpec.make(CRASH, 0).key(code_version())
    assert not cache._path(key).exists()


def test_corrupt_cache_entry_is_evicted_and_reexecuted(cache):
    spec = RunSpec.make(GOOD, 5)
    run_grid([spec], cache=cache)
    path = cache._path(spec.key(code_version()))
    path.write_text('{"metrics": {"value": 5.0, "trunc')
    assert cache.get(spec.key(code_version())) is None
    assert not path.exists()  # the corrupt record is gone, not shadowing
    again = run_grid([spec], cache=cache)
    assert again.executed == 1
    assert path.exists()


def test_misshapen_cache_record_counts_as_miss(cache):
    spec = RunSpec.make(GOOD, 8)
    run_grid([spec], cache=cache)
    path = cache._path(spec.key(code_version()))
    path.write_text(json.dumps({"metrics": "not-a-dict"}))
    again = run_grid([spec], cache=cache)
    assert again.executed == 1
    assert again.metrics()[0]["value"] == 8.0


def test_telemetry_reports_failures(cache):
    grid = run_grid([RunSpec.make(GOOD, 1), RunSpec.make(CRASH, 0)],
                    workers=2, cache=cache, strict=False)
    telemetry = GridTelemetry().add(grid)
    assert telemetry.failed == 1
    assert "1 failed" in telemetry.line()
