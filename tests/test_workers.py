"""Forked worker pool + cache resume: the robustness contract.

The scenarios here are the acceptance criteria of the worker runner:
byte-identical results vs inline, crash containment with a fresh worker,
kill -9 chaos, spawn failures, the patch-before-fork contract, and
resume from the run cache that executes exactly the missing cells.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.experiments import workers
from repro.experiments.runner import (
    GridTelemetry,
    RunCache,
    RunSpec,
    code_version,
    run_grid,
)
from repro.experiments.workers import CHAOS_ENV, WorkerStats

TOY = "tests.test_runner:toy_cell"
CRASH_ONCE = "tests.test_runner_faults:crash_once_cell"
LOGGED = "tests.test_workers:logged_cell"
KILLER = "tests.test_workers:sigterm_once_cell"
CYCLIC = "tests.test_runner:cyclic_session_cell"

REPO_ROOT = Path(__file__).resolve().parents[1]


# -- hostile cells (resolved by dotted path inside workers) ------------------

def logged_cell(seed: int, log: str = "", delay: float = 0.0) -> dict:
    """Appends its seed to ``log`` so tests can see which cells ran."""
    if delay:
        time.sleep(delay)
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(f"{seed}\n")
    return {"value": seed * 2, "processed_events": 1}


def sigterm_once_cell(seed: int, marker_dir: str = "") -> dict:
    """First run: SIGTERMs the *supervisor* mid-sweep and never reports
    back.  Subsequent runs (the resume) complete normally."""
    marker = Path(marker_dir, "sigterm")
    if not marker.exists():
        marker.touch()
        time.sleep(0.5)  # let the other worker cache a few cells
        os.kill(os.getppid(), signal.SIGTERM)
        time.sleep(3.0)  # the supervisor is long gone by now
        os._exit(0)  # release inherited pipes without replying
    return {"value": seed}


def _metrics_bytes(grid) -> str:
    return json.dumps(grid.metrics())


# -- byte-identity -----------------------------------------------------------

def test_workers_byte_identical_to_serial(tmp_path):
    specs = [RunSpec.make(TOY, s, scale=1.5) for s in range(8)]
    serial = run_grid(specs, workers=0, cache=RunCache.disabled())
    pooled = run_grid(specs, workers=3, cache=RunCache.disabled())
    assert _metrics_bytes(serial) == _metrics_bytes(pooled)
    assert pooled.worker_stats is not None
    assert pooled.worker_stats.spawned == 3
    assert not pooled.worker_stats.crashed


def test_telemetry_line_stays_single_line_with_worker_stats():
    specs = [RunSpec.make(TOY, s) for s in range(3)]
    grid = run_grid(specs, workers=2, cache=RunCache.disabled())
    telemetry = GridTelemetry()
    telemetry.add(grid)
    line = telemetry.line()
    assert line.startswith("runner:")
    assert "workers:" in line
    assert "\n" not in line


# -- crash containment and recovery by re-run -------------------------------

def test_worker_crash_respawns_and_retries_the_cell(tmp_path):
    """The crashed cell fails once with its exit code, a fresh worker
    runs the rest, and a re-run against the cache retries only it."""
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    cache = RunCache(root=tmp_path / "cache")
    specs = [RunSpec.make(TOY, 0),
             RunSpec.make(CRASH_ONCE, 1, marker_dir=str(marker_dir)),
             RunSpec.make(TOY, 2)]
    # workers=1 so the crash leaves an empty pool: the sweep can only
    # finish if a fresh worker takes the dead one's slot.
    grid = run_grid(specs, workers=1, cache=cache, strict=False)
    assert [r.error for r in grid.failures] == [
        "worker crashed (exit code 23)"]
    assert len(grid.ok) == 2
    assert grid.worker_stats.crashed == 1
    assert grid.worker_stats.spawned >= 2  # a fresh worker took the slot
    rerun = run_grid(specs, workers=1, cache=cache)
    assert rerun.executed == 1
    assert rerun.results[1].metrics["value"] == 1


def test_kill9_chaos_stays_byte_identical(tmp_path, monkeypatch):
    """A kill -9 fails exactly the cell its worker held; the re-run
    against the cache completes the grid byte-identical to inline."""
    specs = [RunSpec.make(TOY, s) for s in range(6)]
    serial = run_grid(specs, workers=0, cache=RunCache.disabled())
    cache = RunCache(root=tmp_path / "cache")
    monkeypatch.setenv(CHAOS_ENV, "kill-one")
    chaotic = run_grid(specs, workers=2, cache=cache, strict=False)
    assert [r.error for r in chaotic.failures] == [
        "worker crashed (exit code -9)"]
    assert chaotic.worker_stats.crashed == 1
    monkeypatch.delenv(CHAOS_ENV)
    resumed = run_grid(specs, workers=2, cache=cache)
    assert resumed.executed == 1
    assert _metrics_bytes(serial) == _metrics_bytes(resumed)


def test_chaos_kill_of_the_last_cell_ends_the_grid():
    """One worker, two cells: the kill fails the last cell, leaving
    nothing held, and the pool must not wait on an empty set of pipes."""
    script = (
        "from repro.experiments.runner import RunCache, RunSpec, run_grid\n"
        f"specs = [RunSpec.make({TOY!r}, s) for s in range(2)]\n"
        "grid = run_grid(specs, workers=1, cache=RunCache.disabled(),\n"
        "                strict=False)\n"
        "print([r.error for r in grid.results])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}{os.pathsep}{REPO_ROOT}"
    env[CHAOS_ENV] = "kill-one"
    proc = subprocess.run([sys.executable, "-c", script],
                          cwd=str(REPO_ROOT), env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == \
        "[None, 'worker crashed (exit code -9)']"


# -- spawn failure -----------------------------------------------------------

def test_spawn_failure_fails_every_pending_cell(monkeypatch):
    def refuse(self):
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing.get_context().Process, "start",
                        refuse)
    specs = [RunSpec.make(TOY, s) for s in range(3)]
    grid = run_grid(specs, workers=2, cache=RunCache.disabled(),
                    strict=False)
    assert len(grid.failures) == 3
    assert all(r.error.startswith("worker spawn failed: ")
               for r in grid.failures)
    assert grid.worker_stats.spawned == 0


# -- patch before fork -------------------------------------------------------

def test_execute_spec_patched_before_the_fork_runs_in_workers(monkeypatch):
    # Benchmarks wrap the module-global ``execute_spec`` before the pool
    # forks; the workers must run the wrapper, not a copy bound earlier.
    real_execute = workers.execute_spec

    def tagged(spec):
        result = real_execute(spec)
        result.metrics["tag"] = f"patched in {os.getpid()}"
        return result

    monkeypatch.setattr(workers, "execute_spec", tagged)
    specs = [RunSpec.make(TOY, s) for s in range(4)]
    grid = run_grid(specs, workers=2, cache=RunCache.disabled())
    tags = [m["tag"] for m in grid.metrics()]
    assert len(tags) == 4
    assert all(t.startswith("patched in ") for t in tags)
    assert f"patched in {os.getpid()}" not in tags  # ran in the workers


# -- each session freed at its cell's end ------------------------------------

def test_worker_frees_each_session_before_its_next_cell():
    # One worker runs both cells; the second reports whether the
    # first cell's simulator is still alive in that worker.
    specs = [RunSpec.make(CYCLIC, seed) for seed in range(2)]
    grid = run_grid(specs, workers=1, cache=RunCache.disabled())
    assert grid.worker_stats.spawned == 1
    assert grid.metrics()[1]["previous_alive"] is False


# -- resume from the run cache -----------------------------------------------

def test_cache_resume_skips_completed_cells(tmp_path):
    log = tmp_path / "ran.log"
    log.touch()
    cache_dir = tmp_path / "cache"
    specs = [RunSpec.make(LOGGED, s, log=str(log)) for s in range(4)]
    first = run_grid(specs, workers=2, cache=RunCache(root=cache_dir))
    assert sorted(log.read_text().split()) == ["0", "1", "2", "3"]

    log.write_text("")  # reset the execution log
    resumed = run_grid(specs, workers=2, cache=RunCache(root=cache_dir))
    assert log.read_text() == ""  # zero cells re-executed
    assert _metrics_bytes(first) == _metrics_bytes(resumed)
    assert all(r.cached for r in resumed.results)


# -- SIGTERM mid-sweep, resume at exactly the missing cells ------------------

def test_sigterm_resume_executes_exactly_missing_cells(tmp_path):
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    log = tmp_path / "ran.log"
    log.touch()
    cache_dir = tmp_path / "cache"

    script = (
        "import sys\n"
        "from repro.experiments.runner import RunCache, RunSpec, run_grid\n"
        "cache_dir, log, marker_dir = sys.argv[1:4]\n"
        "specs = [RunSpec.make('tests.test_workers:sigterm_once_cell', 0,\n"
        "                      marker_dir=marker_dir)]\n"
        "specs += [RunSpec.make('tests.test_workers:logged_cell', s,\n"
        "                       log=log, delay=0.15) for s in range(1, 7)]\n"
        "run_grid(specs, workers=2, cache=RunCache(root=cache_dir),\n"
        "         strict=False)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}{os.pathsep}{REPO_ROOT}"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cache_dir), str(log),
         str(marker_dir)],
        cwd=str(REPO_ROOT), env=env, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == -signal.SIGTERM, proc.stderr

    # What the interrupted sweep durably acknowledged:
    version = code_version()
    specs = [RunSpec.make(KILLER, 0, marker_dir=str(marker_dir))]
    specs += [RunSpec.make(LOGGED, s, log=str(log), delay=0.15)
              for s in range(1, 7)]
    cache = RunCache(root=cache_dir)
    done = {i for i, spec in enumerate(specs)
            if cache.get(spec.key(version)) is not None}
    assert 0 not in done  # the killer never completed
    missing = set(range(len(specs))) - done

    log.write_text("")
    resumed = run_grid(specs, workers=2, cache=cache)
    ran = {int(s) for s in log.read_text().split()}
    assert ran == missing - {0}  # logged cells: exactly the missing ones
    assert len(resumed.ok) == len(specs)
    assert all(resumed.results[i].cached for i in done)

    # Byte-identical to an uninterrupted serial sweep of the same cells.
    marker2 = tmp_path / "markers2"
    marker2.mkdir()
    (marker2 / "sigterm").touch()  # defuse the killer
    log2 = tmp_path / "ran2.log"
    serial_specs = [RunSpec.make(KILLER, 0, marker_dir=str(marker2))]
    serial_specs += [RunSpec.make(LOGGED, s, log=str(log2), delay=0.15)
                     for s in range(1, 7)]
    serial = run_grid(serial_specs, workers=0, cache=RunCache.disabled())
    assert _metrics_bytes(resumed) == _metrics_bytes(serial)


# -- RunCache concurrent writers ---------------------------------------------

def test_cache_put_survives_concurrent_writers(tmp_path):
    cache = RunCache(root=tmp_path / "cache")
    key = "ab" + "0" * 62
    records = [{"metrics": {"value": n}, "writer": n} for n in range(8)]
    barrier = threading.Barrier(len(records))
    errors = []

    def hammer(record):
        barrier.wait()
        try:
            for _ in range(50):
                cache.put(key, record)
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(r,)) for r in records]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # Whatever order the replaces landed in, the slot holds one complete
    # record, not an interleaving of two writers.
    final = cache.get(key)
    assert final in records
    # Every temp file was published or cleaned up -- none leak.
    assert not list((tmp_path / "cache").rglob("*.tmp"))


def test_cache_put_temp_names_are_unique_per_write(tmp_path):
    """The regression shape: two writers racing on one pid-named temp
    file interleave their bytes.  Temp names must differ per write even
    within one process."""
    cache = RunCache(root=tmp_path / "cache")
    key = "cd" + "0" * 62
    seen = set()
    original_open = Path.open

    def spying_open(self, *args, **kwargs):
        if self.suffix == ".tmp":
            seen.add(self.name)
        return original_open(self, *args, **kwargs)

    try:
        Path.open = spying_open
        cache.put(key, {"metrics": {"v": 1}})
        cache.put(key, {"metrics": {"v": 2}})
    finally:
        Path.open = original_open
    assert len(seen) == 2


# -- WorkerStats -------------------------------------------------------------

def test_worker_stats_merge_and_line():
    a = WorkerStats(spawned=2, crashed=1)
    b = WorkerStats(spawned=1, crashed=1)
    a.merge(b)
    assert a.spawned == 3 and a.crashed == 2
    assert a.line() == "workers: 3 spawned, 2 crashed"
