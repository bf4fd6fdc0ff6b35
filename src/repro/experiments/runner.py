"""Parallel experiment harness with an on-disk result cache.

Every paper artefact is an average over many independent simulated
downloads, and each download is a pure function of its
:class:`~repro.experiments.runner.RunSpec` (the simulator guarantees a
run is a pure function of its seed -- see :mod:`repro.simnet.engine`).
That purity buys two things:

* **fan-out** -- cells of an experiment grid can run in worker
  processes in any order without changing the aggregated result, and
* **memoization** -- a completed cell can be cached on disk, keyed by
  a content hash of its spec plus a fingerprint of the package source,
  so re-running a benchmark or resuming an interrupted sweep only
  executes the missing cells.

Two dispatch paths, picked from the inputs: cells run inline in the
calling process (``workers=0``, the default), or on the forked worker
pool of :mod:`repro.experiments.workers` (``workers=N``, or
any grid with a wall-clock deadline, which needs process isolation).
On the pool a worker that dies or hangs marks *that* cell
failed-with-reason instead of killing the grid.  A cell runs once: a
cell that raised would raise again (it is a pure function of its spec),
so a failure is reported with its reason, never retried in the run.
Every completed cell is persisted to the cache the moment it finishes,
and that is the one recovery path -- an interrupted or partly failed
sweep, re-run with the same cache, executes exactly the cells it is
missing.  ``run_grid(strict=True)`` (the default) still raises
:class:`GridError` once the sweep is over, after caching all successes.

An experiment expresses itself as a list of :class:`RunSpec`s and calls
:func:`run_grid`; aggregation happens on the plain-dict metrics each
cell returns.  Cell functions are addressed by dotted path
(``"repro.experiments.table1:run_cell"``) so worker processes can
resolve them without a registry, and they must return JSON-serialisable
dicts so records survive the cache round-trip unchanged.

Telemetry: every :class:`RunResult` carries wall time and, when the
cell reports them (the session-based cells all do), simulated time and
the simulator's executed-event count -- so perf regressions show up in
benchmark output rather than only in wall-clock noise.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import itertools
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every cached record regardless of source changes.
CACHE_FORMAT = 1

_JSON_SCALARS = (str, int, float, bool, type(None))


def _check_jsonable(value: Any, where: str) -> None:
    if isinstance(value, _JSON_SCALARS):
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_jsonable(item, where)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"{where}: dict keys must be str, got {key!r}")
            _check_jsonable(item, where)
        return
    raise TypeError(f"{where}: {value!r} is not JSON-serialisable")


@dataclass(frozen=True)
class RunSpec:
    """One cell of an experiment grid.

    A spec is declarative on purpose: a dotted path to a top-level cell
    function plus JSON-serialisable parameters.  That keeps it picklable
    for worker processes and hashable for the cache key -- a
    :class:`~repro.experiments.session.SessionConfig` (which holds
    callables) never crosses a process or cache boundary.
    """

    #: Dotted path ``"package.module:function"`` of the cell function.
    fn: str
    #: Master seed for the cell's simulator.
    seed: int
    #: Sorted ``(name, value)`` pairs of keyword arguments for the cell.
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, fn: str, seed: int, **params: Any) -> "RunSpec":
        """Build a spec, validating that ``params`` survive JSON."""
        _check_jsonable(dict(params), f"RunSpec({fn})")
        return cls(fn=fn, seed=seed,
                   params=tuple(sorted(params.items())))

    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    def label(self) -> str:
        """``fn(seed=S, name=value, ...)``: tells apart the cells of one
        grid in a failure report."""
        args = [f"seed={self.seed}"] + [f"{name}={value!r}"
                                        for name, value in self.params]
        return f"{self.fn}({', '.join(args)})"

    def to_dict(self) -> Dict[str, Any]:
        return {"fn": self.fn, "seed": self.seed, "params": self.kwargs()}

    def key(self, version: str) -> str:
        """Content-addressed cache key: hash of spec + code version."""
        payload = json.dumps({"spec": self.to_dict(), "version": version,
                              "format": CACHE_FORMAT}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class RunResult:
    """One completed (or cache-recalled, or failed) cell."""

    spec: RunSpec
    metrics: Dict[str, Any]
    wall_time_s: float
    sim_time_s: float
    processed_events: int
    cached: bool
    #: Why the cell failed (crash / timeout / exception), None on success.
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def to_record(self) -> Dict[str, Any]:
        return {"spec": self.spec.to_dict(), "metrics": self.metrics,
                "wall_time_s": self.wall_time_s,
                "sim_time_s": self.sim_time_s,
                "processed_events": self.processed_events}


@dataclass
class GridResult:
    """All cells of one grid, in spec order."""

    results: List[RunResult]
    #: Wall-clock seconds the whole ``run_grid`` call took (dispatch
    #: overhead included), as opposed to ``wall_time_s`` which sums the
    #: in-cell time each worker measured.
    elapsed_s: float = 0.0
    #: :class:`repro.experiments.workers.WorkerStats` when the grid ran
    #: on the worker pool, else None.
    worker_stats: Optional[Any] = None

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def metrics(self) -> List[Dict[str, Any]]:
        """Metric dicts of the *successful* cells, in spec order."""
        return [r.metrics for r in self.results if not r.failed]

    def group_by(self, param: str) -> Dict[Any, List[Dict[str, Any]]]:
        """Metric dicts of the successful cells grouped by the value of
        the spec parameter ``param``, each group in spec order."""
        groups: Dict[Any, List[Dict[str, Any]]] = {}
        for result in self.ok:
            groups.setdefault(result.spec.kwargs()[param], []).append(
                result.metrics)
        return groups

    @property
    def ok(self) -> List[RunResult]:
        """Successful cells, in spec order."""
        return [r for r in self.results if not r.failed]

    @property
    def failures(self) -> List[RunResult]:
        """Failed cells (``.error`` says why), in spec order."""
        return [r for r in self.results if r.failed]

    @property
    def executed(self) -> int:
        """Cells that actually ran a simulator this invocation."""
        return sum(1 for r in self.results if not r.cached)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def wall_time_s(self) -> float:
        return sum(r.wall_time_s for r in self.results)

    @property
    def sim_time_s(self) -> float:
        return sum(r.sim_time_s for r in self.results)

    @property
    def processed_events(self) -> int:
        return sum(r.processed_events for r in self.results)

@dataclass
class GridTelemetry:
    """Accumulated run telemetry across one or more grids.

    Experiments attach one of these to their result object so the CLI
    and benchmarks can report how much work a sweep actually did --
    and, via ``executed``, prove a warm cache ran zero simulators.
    """

    cells: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    processed_events: int = 0
    sim_time_s: float = 0.0
    wall_time_s: float = 0.0
    #: Merged :class:`repro.experiments.workers.WorkerStats` across the
    #: grids that ran on the worker pool, else None.
    workers: Optional[Any] = None

    def add(self, grid: "GridResult") -> "GridTelemetry":
        self.cells += len(grid)
        self.executed += grid.executed
        self.cached += grid.cache_hits
        self.failed += len(grid.failures)
        self.processed_events += grid.processed_events
        self.sim_time_s += grid.sim_time_s
        self.wall_time_s += grid.wall_time_s
        if grid.worker_stats is not None:
            if self.workers is None:
                from repro.experiments.workers import WorkerStats
                self.workers = WorkerStats()
            self.workers.merge(grid.worker_stats)
        return self

    def line(self) -> str:
        """One-line run summary for CLI / benchmark output."""
        failed = f", {self.failed} failed" if self.failed else ""
        line = (f"runner: {self.cells} cells "
                f"({self.executed} executed, {self.cached} cached{failed}), "
                f"{self.processed_events} events, "
                f"sim {self.sim_time_s:.1f}s in wall {self.wall_time_s:.1f}s")
        if self.workers is not None:
            line += "; " + self.workers.line()
        return line


class GridError(RuntimeError):
    """Raised by ``run_grid(strict=True)`` when cells failed.

    Raised only after the sweep finished and every *successful* cell was
    persisted to the cache, so a rerun re-executes just the failures.
    The partial :class:`GridResult` rides along as ``.grid``.
    """

    def __init__(self, grid: GridResult):
        self.grid = grid
        self.failures = grid.failures
        shown = "; ".join(f"{r.spec.label()}: {r.error}"
                          for r in self.failures[:4])
        more = (f" (+{len(self.failures) - 4} more)"
                if len(self.failures) > 4 else "")
        super().__init__(f"{len(self.failures)} of {len(grid)} cells "
                         f"failed: {shown}{more}")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-runs``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-runs").expanduser()


_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Fingerprint of the installed ``repro`` package source.

    Hashes the content of every ``*.py`` file under the package root so
    any source change invalidates cached records.  Computed once per
    process.
    """
    global _code_version_cache
    if _code_version_cache is None:
        # The package root, located relative to this file rather than
        # via `import repro` (which would reach the interface layer).
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


#: Monotone per-process serial for cache temp-file names; combined with
#: the pid it makes every concurrent writer's temp path unique.
_put_serial = itertools.count()


class RunCache:
    """Content-addressed on-disk store of completed run records.

    One JSON file per record, named by the spec's cache key; writes are
    atomic and durable (temp file + fsync + rename) so a killed sweep
    never leaves a corrupt record behind, and a re-run simply fills in
    missing cells.  A record that is nonetheless unreadable -- truncated
    by a full disk, hand-edited, wrong shape -- counts as a miss and is
    evicted so it cannot shadow the slot forever.
    """

    def __init__(self, root: Optional[Path] = None, enabled: bool = True):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = enabled

    def _path(self, key: str) -> Path:
        # Shard by the first two hex chars to keep directories small.
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with path.open() as handle:
                record = json.load(handle)
        except OSError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._evict(path)
            return None
        if not isinstance(record, dict) or not isinstance(
                record.get("metrics"), dict):
            self._evict(path)
            return None
        return record

    @staticmethod
    def _evict(path: Path) -> None:
        """Drop a corrupt record (the slot becomes a plain miss) or the
        temp file of a failed write."""
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, key: str, record: Dict[str, Any]) -> None:
        if not self.enabled:
            return
        path = self._path(key)
        # The temp name must be unique per *writer*, not just per
        # process: two threads (or a pool completing the same key twice
        # after a worker crash) racing on one pid-named temp file would
        # interleave writes and publish garbage.  With a per-writer name
        # the worst case is two valid replace()s racing, and either
        # order leaves a complete record in place.
        tmp = path.with_suffix(f".{os.getpid()}.{next(_put_serial)}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("w") as handle:
                # No sort_keys: a recalled record must keep the key
                # order the cell produced, or a resumed grid would not
                # be byte-identical to an uninterrupted one.
                json.dump(record, handle)
                handle.flush()
                os.fsync(handle.fileno())
            tmp.replace(path)
        except OSError as exc:
            # An unwritable cache must not kill a sweep that already
            # has results in hand; degrade to uncached runs, once.  A
            # full disk fails after the temp file exists: drop it.
            self._evict(tmp)
            self.enabled = False
            print(f"repro: run cache disabled ({exc})", file=sys.stderr)

    @classmethod
    def disabled(cls) -> "RunCache":
        return cls(enabled=False)


def resolve_cell(fn: str):
    """Import and return the cell function named by ``fn``."""
    module_name, _, attr = fn.partition(":")
    if not attr:
        raise ValueError(f"cell path {fn!r} must look like 'module:function'")
    module = importlib.import_module(module_name)
    return getattr(module, attr)


#: Pid of the process whose start-up heap is frozen (see execute_spec).
_frozen_pid: Optional[int] = None


def _freeze_startup_heap() -> None:
    """Once per process, before its first cell: collect, then move every
    surviving object into the collector's permanent generation.

    The per-cell collection in :func:`execute_spec` then walks only what
    was allocated since (a few milliseconds after a Table II cell), not
    every module, class and function as well.  A frozen object is never
    collected, so cyclic garbage the frozen heap sheds later is never
    freed.  That is safe because every entry point reaches its first
    cell with the import-time heap, whose modules, classes and functions
    live as long as the process: the CLI after parsing its arguments,
    perfbench at its first iteration, and a pool worker just after its
    fork (its pid differs from its parent's, so it freezes its own
    copy).  Beyond that heap, what is live at the first cell (the parsed
    arguments, the first grid's specs) is small and can outlive its use
    at most once per process.  The freeze is never undone.
    """
    global _frozen_pid
    if _frozen_pid != os.getpid():
        gc.collect()
        gc.freeze()
        _frozen_pid = os.getpid()


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one cell in the current process (the worker entry point).

    Both dispatch paths run every cell through here, so this is where a
    session ends.  A finished session is cyclic garbage (the simulator,
    its pending events and the endpoints point at each other) that
    reference counting never frees, so the cell ends with a collection;
    otherwise dead sessions pile up until a rare full collection and
    set the peak RSS.  While the cell runs the collector is off: a
    running session makes almost no cyclic garbage, so an automatic
    pass would only walk the live session to find nothing.  The
    caller's collector state is restored, whether the cell returned or
    raised, before that one collection.
    """
    _freeze_startup_heap()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_cell(spec)
    except BaseException as exc:
        # The traceback's frames hold the failed session's locals; drop
        # them so the collection below frees it as well.
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        if enabled:
            gc.enable()
        gc.collect()


def _run_cell(spec: RunSpec) -> RunResult:
    cell = resolve_cell(spec.fn)
    start = time.perf_counter()
    metrics = cell(spec.seed, **spec.kwargs())
    wall = time.perf_counter() - start
    if not isinstance(metrics, dict):
        raise TypeError(f"cell {spec.fn} returned {type(metrics).__name__}, "
                        f"expected dict")
    _check_jsonable(metrics, f"metrics of {spec.fn}")
    return RunResult(
        spec=spec,
        metrics=metrics,
        wall_time_s=wall,
        sim_time_s=float(metrics.get("sim_time_s", 0.0)),
        processed_events=int(metrics.get("processed_events", 0)),
        cached=False,
    )


def _result_from_record(spec: RunSpec, record: Dict[str, Any]) -> RunResult:
    return RunResult(
        spec=spec,
        metrics=record["metrics"],
        wall_time_s=record.get("wall_time_s", 0.0),
        sim_time_s=record.get("sim_time_s", 0.0),
        processed_events=record.get("processed_events", 0),
        cached=True,
    )


def _failed_result(spec: RunSpec, reason: str) -> RunResult:
    return RunResult(spec=spec, metrics={}, wall_time_s=0.0, sim_time_s=0.0,
                     processed_events=0, cached=False, error=reason)


def _run_serial(specs: List[RunSpec], misses: List[int], *,
                on_result: Callable[[int, RunResult], None]) -> None:
    """In-process execution of ``specs[misses]``: no crash isolation
    and no hard deadline, but also no process overhead -- the
    ``workers=0`` path."""
    for index in misses:
        try:
            result = execute_spec(specs[index])
        except Exception as exc:
            result = _failed_result(specs[index],
                                    f"{type(exc).__name__}: {exc}")
        on_result(index, result)


def run_grid(specs: Iterable[RunSpec], *,
             cache: Optional[RunCache] = None,
             cell_timeout_s: Optional[float] = None, workers: int = 0,
             strict: bool = True) -> GridResult:
    """Execute a grid of specs, reusing cached cells, in spec order.

    Aggregated output is independent of ``workers``: cells are pure
    functions of their spec, and results are returned in the order the
    specs were given regardless of completion order.

    Two dispatch paths:

    * ``workers=0`` (the default) -- inline, in this process.
    * ``workers=N`` -- the forked **worker pool**
      (:mod:`repro.experiments.workers`): crash isolation and cell
      deadlines.

    ``cell_timeout_s`` puts a wall-clock deadline on every cell; a
    deadline needs process isolation, so with ``workers=0`` it runs on a
    one-worker pool.  Each cell runs once.  Every successful cell is
    cached the moment it finishes, so an interrupted or partly-failed
    sweep re-run against the same cache executes only the missing
    cells.  With ``strict`` (the default) a failed cell raises
    :class:`GridError` at the end; ``strict=False`` instead returns the
    failures inline (``GridResult.failures``, each with ``.error``).
    """
    specs = list(specs)
    if cache is None:
        cache = RunCache()
    # A disabled cache is neither read nor filled: skip hashing the
    # source tree and the specs.
    keys = ([spec.key(code_version()) for spec in specs] if cache.enabled
            else [])
    started = time.monotonic()

    results: List[Optional[RunResult]] = [None] * len(specs)
    misses: List[int] = []
    for i, spec in enumerate(specs):
        record = cache.get(keys[i]) if keys else None
        if record is not None:
            results[i] = _result_from_record(spec, record)
        else:
            misses.append(i)

    def on_result(index: int, result: RunResult) -> None:
        if keys and not result.failed:
            cache.put(keys[index], result.to_record())
        results[index] = result

    worker_stats = None
    if misses and (workers > 0 or cell_timeout_s is not None):
        from repro.experiments import workers as worker_pool
        worker_stats = worker_pool.run_persistent(
            specs, misses, workers=max(1, workers), on_result=on_result,
            timeout_s=cell_timeout_s)
    elif misses:
        _run_serial(specs, misses, on_result=on_result)

    grid_result = GridResult(
        results=[r for r in results if r is not None],
        elapsed_s=time.monotonic() - started,
        worker_stats=worker_stats)
    if strict and grid_result.failures:
        raise GridError(grid_result)
    return grid_result

