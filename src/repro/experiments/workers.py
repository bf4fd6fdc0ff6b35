"""Supervised persistent worker pool for the experiment runner.

This is the runner's process-backed dispatch path (``workers=N``, or
any grid with a cell deadline): a pool of **long-lived worker
processes** supervised over duplex pipes.  The supervisor streams one
:class:`RunSpec` at a time to each worker (a bounded queue of depth one
per worker -- backpressure is structural, a million-cell sweep never
materializes more than ``workers`` cells in flight), workers execute
cells with :func:`~repro.experiments.runner.execute_spec` and ship
structured results back.  Results are byte-identical to inline
execution because cells are pure functions of their spec and the
supervisor places results by spec index.

Robustness model (the reason this module exists):

* **Heartbeats.**  Every worker runs a daemon thread that beats over
  the pipe each ``HEARTBEAT_INTERVAL_S``.  A worker whose beats stop
  (wedged C call, SIGSTOP, livelock) is killed and respawned; the cell
  it held is re-dispatched and the event is recorded as a
  ``WORKER_HEARTBEAT_LOST`` violation in the invariant taxonomy.
* **Crash containment.**  A worker that dies (segfault, ``os._exit``,
  kill -9) surfaces as EOF on its pipe; the supervisor respawns it with
  capped exponential backoff and charges a *strike* against the cell it
  was running.
* **Poison quarantine.**  A cell whose strikes reach ``POISON_STRIKES``
  consecutive worker deaths is marked failed (reason prefixed
  ``poison:``) and skipped -- it cannot wedge the sweep by killing
  replacement workers forever, no matter how large ``retries`` is.
* **Dirty-state refusal.**  Each worker arms a
  :class:`WorkerStateGuard` at birth; before every cell it verifies the
  ambient state a cell must not depend on (cwd, environment, global
  random state) is untouched.  A dirty worker refuses the cell, reports
  ``WORKER_STATE_DIRTY``, and exits so the supervisor replaces it with
  a pristine interpreter -- the static CACHE lint family polices this
  at review time; the guard enforces it at run time.
* **Graceful degradation.**  If the respawn budget is exhausted and no
  worker survives, remaining cells run serially in the supervisor --
  except cells that already killed a worker, which are failed rather
  than invited to take down the supervisor too.

This module is on the DET002 wall-clock allowlist (like the runner's
telemetry): heartbeat ages, stall deadlines and backoff windows are
real-time concepts, not simulated time.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.runner import (
    RunResult,
    RunSpec,
    _failed_result,
    _retry_delay,
    _run_serial,
    execute_spec,
)
from repro.invariants.violations import Violation

#: Interval between worker heartbeats (seconds).
HEARTBEAT_INTERVAL_S = 0.5

#: Floor of the stall timeout (seconds): a worker is stalled once its
#: last beat is older than ten heartbeats, and never sooner than this.
STALL_TIMEOUT_MIN_S = 5.0

#: Consecutive worker deaths before a cell is quarantined.
POISON_STRIKES = 3

#: The respawn budget of a pool of ``n`` workers is
#: ``max(RESPAWNS_MIN, RESPAWNS_PER_WORKER * n)``.
RESPAWNS_MIN = 8
RESPAWNS_PER_WORKER = 2

#: Ceiling on the respawn backoff, seconds.
RESPAWN_BACKOFF_CAP_S = 5.0

#: Environment variable for deterministic fault injection in smoke
#: tests: ``kill-one`` SIGKILLs one worker after the first result.
CHAOS_ENV = "REPRO_WORKER_CHAOS"


# -- worker-side state guard -------------------------------------------------

class WorkerStateGuard:
    """Detects ambient-state contamination between cells.

    Cells are pure functions of their spec; the lint CACHE family
    rejects cells that *read* ambient state, and this guard rejects
    workers whose previous cell *wrote* it.  The snapshot covers the
    channels a cell could plausibly leak through without tripping the
    linter: working directory, environment, and the interpreter's
    global random stream.
    """

    def __init__(self) -> None:
        self._baseline = self._snapshot()

    @staticmethod
    def _snapshot() -> Dict[str, str]:
        env_digest = hashlib.sha256()
        for key in sorted(os.environ):
            env_digest.update(f"{key}={os.environ[key]}\0".encode(
                "utf-8", "surrogateescape"))
        # getstate() only observes the global stream; cells that *draw*
        # from it are what DET003 forbids.
        state_digest = hashlib.sha256(
            repr(random.getstate()).encode()).hexdigest()[:16]
        return {
            "cwd": os.getcwd(),
            "environ": env_digest.hexdigest()[:16],
            "random": state_digest,
        }

    def check(self) -> List[str]:
        """Names of the ambient channels that drifted since arming."""
        current = self._snapshot()
        return [f"{name} changed" for name in sorted(self._baseline)
                if current[name] != self._baseline[name]]


# -- worker process entry ----------------------------------------------------

def _persistent_worker_main(conn, worker_id: int,
                            heartbeat_s: float) -> None:
    """Loop: receive ``("run", index, spec, ...)``, execute, reply.

    A daemon thread beats every ``heartbeat_s`` so the supervisor can
    tell a busy worker from a wedged one.  The guard armed here refuses
    any cell offered to a contaminated interpreter -- the worker reports
    and exits rather than risk a result that differs from a fresh
    process.
    """
    guard = WorkerStateGuard()
    send_lock = threading.Lock()
    current: Dict[str, Any] = {"index": None}
    stop = threading.Event()
    supervisor_pid = os.getppid()

    def _send(message: Tuple) -> bool:
        with send_lock:
            try:
                conn.send(message)
                return True
            except (OSError, ValueError):
                return False

    def _beat() -> None:
        while not stop.wait(heartbeat_s):
            # Orphan watchdog: under fork every worker inherits dup'd
            # pipe ends (including its own), so supervisor death never
            # surfaces as EOF on ``recv`` -- a reparented worker would
            # otherwise block forever.  If our parent changed, the
            # supervisor is gone; exit instead of leaking.
            if os.getppid() != supervisor_pid:
                os._exit(2)
            if not _send(("beat", current["index"])):
                return

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    _send(("ready", worker_id))

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, index, spec = message
        dirt = guard.check()
        if dirt:
            # Refuse to run in a contaminated interpreter; the cell is
            # not charged (it never executed) and this process ends.
            _send(("dirty", index, dirt))
            break
        current["index"] = index
        try:
            result = execute_spec(spec)
            reply = ("ok", index, result.metrics, result.wall_time_s)
        except BaseException as exc:
            reply = ("error", index, f"{type(exc).__name__}: {exc}")
        current["index"] = None
        if not _send(reply):
            break
    stop.set()
    conn.close()


# -- supervisor --------------------------------------------------------------

@dataclass
class WorkerStats:
    """Worker-health telemetry for one pool run (rides on GridResult)."""

    spawned: int = 0
    respawned: int = 0
    crashed: int = 0
    stalled: int = 0
    dirty: int = 0
    poisoned: int = 0
    degraded_to_serial: bool = False
    #: Serialized worker-health :class:`Violation`s, oldest first.
    events: List[dict] = field(default_factory=list)

    def merge(self, other: "WorkerStats") -> "WorkerStats":
        self.spawned += other.spawned
        self.respawned += other.respawned
        self.crashed += other.crashed
        self.stalled += other.stalled
        self.dirty += other.dirty
        self.poisoned += other.poisoned
        self.degraded_to_serial |= other.degraded_to_serial
        self.events.extend(other.events)
        return self

    def line(self) -> str:
        parts = [f"{self.spawned} spawned"]
        if self.respawned:
            parts.append(f"{self.respawned} respawned")
        if self.crashed:
            parts.append(f"{self.crashed} crashed")
        if self.stalled:
            parts.append(f"{self.stalled} stalled")
        if self.dirty:
            parts.append(f"{self.dirty} dirty")
        if self.poisoned:
            parts.append(f"{self.poisoned} poisoned cell(s)")
        if self.degraded_to_serial:
            parts.append("degraded to serial")
        return "workers: " + ", ".join(parts)


@dataclass
class _Worker:
    """Supervisor-side handle for one live worker process."""

    wid: int
    proc: Any
    conn: Any
    #: ``(spec index, prior attempts)`` while busy, else None.
    current: Optional[Tuple[int, int]] = None
    last_beat: float = 0.0
    busy_since: float = 0.0


def stall_exceeded(last_beat: float, now: float,
                   stall_timeout_s: float) -> bool:
    """True when a worker's beat age *strictly* exceeds the stall
    timeout.  Strict: a beat aged exactly ``stall_timeout_s`` is still
    alive, so the supervisor's wait horizon (``last_beat +
    stall_timeout_s``) can expire without instantly condemning the
    worker it woke up to check."""
    return now - last_beat > stall_timeout_s


def run_persistent(specs: List[RunSpec], misses: List[int], *,
                   workers: int,
                   on_result: Callable[[int, RunResult], None],
                   timeout_s: Optional[float] = None,
                   retries: int = 0) -> WorkerStats:
    """Execute ``specs[misses]`` on a supervised persistent pool.

    Calls ``on_result(index, result)`` exactly once per miss, in
    completion order; the caller places results by index so the grid
    stays in spec order.  Returns the pool's :class:`WorkerStats`.
    """
    import multiprocessing

    ctx = multiprocessing.get_context()
    target = max(1, min(workers, len(misses)))
    stall_timeout_s = max(10.0 * HEARTBEAT_INTERVAL_S, STALL_TIMEOUT_MIN_S)
    chaos = os.environ.get(CHAOS_ENV, "")

    stats = WorkerStats()
    started = time.monotonic()
    #: (spec index, prior attempts, earliest dispatch time).
    pending = deque((index, 0, 0.0) for index in misses)
    settled = 0
    strikes: Dict[int, int] = {}
    pool: Dict[int, _Worker] = {}
    next_wid = 0
    respawns_left = max(RESPAWNS_MIN, RESPAWNS_PER_WORKER * target)
    next_spawn_at = 0.0
    spawn_backoff = 0
    chaos_armed = chaos == "kill-one"

    def emit(code: str, where: str, message: str) -> None:
        violation = Violation(code=code, domain="worker",
                              at_s=time.monotonic() - started,
                              where=where, message=message)
        stats.events.append(violation.to_jsonable())

    def fail(index: int, reason: str, attempts: int,
             poison: bool = False) -> None:
        nonlocal settled
        result = _failed_result(specs[index], reason, attempts)
        on_result(index, result)
        settled += 1
        if poison:
            stats.poisoned += 1

    def succeed(index: int, metrics: Dict[str, Any], wall: float,
                attempts: int) -> None:
        nonlocal settled
        on_result(index, RunResult(
            spec=specs[index], metrics=metrics, wall_time_s=wall,
            sim_time_s=float(metrics.get("sim_time_s", 0.0)),
            processed_events=int(metrics.get("processed_events", 0)),
            cached=False, attempts=attempts))
        settled += 1

    def settle_failure(index: int, prior_attempts: int, reason: str,
                       worker_death: bool) -> None:
        """One attempt ended badly: strike/retry/quarantine/fail."""
        attempts = prior_attempts + 1
        if worker_death:
            count = strikes.get(index, 0) + 1
            strikes[index] = count
            if count >= POISON_STRIKES:
                emit("CELL_POISONED", f"cell#{index}",
                     f"{specs[index].fn}(seed={specs[index].seed}) killed "
                     f"{count} consecutive workers; quarantined")
                fail(index, f"poison: cell killed {count} consecutive "
                            f"workers; quarantined (last: {reason})",
                     attempts, poison=True)
                return
        else:
            strikes.pop(index, None)
        if prior_attempts < retries:
            resume_at = (time.monotonic()
                         + _retry_delay(prior_attempts))
            pending.append((index, attempts, resume_at))
        else:
            fail(index, reason, attempts)

    def spawn() -> bool:
        nonlocal next_wid, next_spawn_at, spawn_backoff
        wid = next_wid
        next_wid += 1
        try:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_persistent_worker_main,
                               args=(child_conn, wid, HEARTBEAT_INTERVAL_S),
                               daemon=True)
            proc.start()
            child_conn.close()
        except OSError:
            spawn_backoff += 1
            next_spawn_at = (time.monotonic()
                             + min(RESPAWN_BACKOFF_CAP_S,
                                   0.1 * (2 ** spawn_backoff)))
            return False
        spawn_backoff = 0
        pool[wid] = _Worker(wid=wid, proc=proc, conn=parent_conn,
                            last_beat=time.monotonic())
        stats.spawned += 1
        return True

    def dispose(worker: _Worker) -> None:
        pool.pop(worker.wid, None)
        try:
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(0.5)
                if worker.proc.is_alive():
                    worker.proc.kill()
            worker.proc.join()
        finally:
            try:
                worker.conn.close()
            except OSError:
                pass

    def worker_died(worker: _Worker, kind: str, detail: str) -> None:
        """A worker is gone (crash or stall): account, settle, dispose."""
        if kind == "stall":
            stats.stalled += 1
            emit("WORKER_HEARTBEAT_LOST", f"worker#{worker.wid}", detail)
        else:
            stats.crashed += 1
            emit("WORKER_CRASH", f"worker#{worker.wid}", detail)
        held = worker.current
        worker.current = None
        dispose(worker)
        if held is not None:
            index, prior_attempts = held
            settle_failure(index, prior_attempts, detail, worker_death=True)

    def handle_message(worker: _Worker, message: Tuple) -> None:
        nonlocal chaos_armed
        worker.last_beat = time.monotonic()
        kind = message[0]
        if kind in ("beat", "ready"):
            return
        if kind == "ok":
            _, index, metrics, wall = message
            held = worker.current
            worker.current = None
            prior = held[1] if held is not None else 0
            strikes.pop(index, None)
            succeed(index, metrics, wall, prior + 1)
            if chaos_armed:
                chaos_armed = False
                victim = next((w for w in pool.values()
                               if w.wid != worker.wid), worker)
                if victim.proc.pid is not None:
                    os.kill(victim.proc.pid, signal.SIGKILL)
        elif kind == "error":
            _, index, reason = message
            held = worker.current
            worker.current = None
            prior = held[1] if held is not None else 0
            settle_failure(index, prior, reason, worker_death=False)
        elif kind == "dirty":
            _, index, dirt = message
            held = worker.current
            worker.current = None
            stats.dirty += 1
            emit("WORKER_STATE_DIRTY", f"worker#{worker.wid}",
                 f"worker refused cell #{index}: "
                 + "; ".join(dirt))
            # The cell never ran: requeue without charging an attempt.
            prior = held[1] if held is not None else 0
            pending.appendleft((index, prior, 0.0))
            # The worker exits on its own; reap it quietly.
            dispose(worker)

    def degrade_to_serial() -> None:
        """No workers and no respawn budget: finish in-process."""
        stats.degraded_to_serial = True
        emit("WORKER_POOL_DEGRADED", "supervisor",
             f"respawn budget exhausted after {stats.spawned} spawns; "
             f"running {len(pending)} remaining cell(s) serially")
        rest = []
        for index, prior_attempts, _ in pending:
            if strikes.get(index, 0) > 0:
                fail(index, "worker crashed (cell killed a worker; not "
                            "re-run in the supervisor process)",
                     prior_attempts + 1)
            else:
                rest.append((index, prior_attempts))
        pending.clear()
        _run_serial(specs, rest, retries=retries, on_result=on_result)

    try:
        from multiprocessing.connection import wait as connection_wait

        total = len(misses)
        while settled < total:
            now = time.monotonic()

            # Keep the pool at strength while there is work left.
            # Initial spawns (up to ``target``) are free; every further
            # spawn is a respawn charged against the respawn budget.
            live_needed = min(target, total - settled)
            while len(pool) < live_needed and now >= next_spawn_at:
                if stats.spawned >= target:
                    if respawns_left <= 0:
                        break
                    if spawn():
                        stats.respawned += 1
                        respawns_left -= 1
                    else:
                        break
                elif not spawn():
                    break
                now = time.monotonic()
            if not pool:
                if stats.spawned == 0 or respawns_left <= 0 \
                        or spawn_backoff >= 6:
                    degrade_to_serial()
                    break
                time.sleep(max(0.0, next_spawn_at - now))
                continue

            # Dispatch: at most one in-flight cell per worker.
            now = time.monotonic()
            idle = [w for w in pool.values() if w.current is None]
            for worker in idle:
                slot = None
                for _ in range(len(pending)):
                    candidate = pending.popleft()
                    if candidate[2] <= now:
                        slot = candidate
                        break
                    pending.append(candidate)
                if slot is None:
                    break
                index, prior_attempts, _ = slot
                try:
                    worker.conn.send(("run", index, specs[index]))
                except (OSError, ValueError):
                    # Died between reap sweeps: requeue and account.
                    pending.appendleft(slot)
                    worker_died(worker, "crash",
                                "worker crashed (send failed)")
                    continue
                worker.current = (index, prior_attempts)
                worker.busy_since = now

            # How long may we block?
            now = time.monotonic()
            horizons = [w.last_beat + stall_timeout_s
                        for w in pool.values()]
            if timeout_s is not None:
                horizons += [w.busy_since + timeout_s
                             for w in pool.values()
                             if w.current is not None]
            horizons += [item[2] for item in pending if item[2] > now]
            wait_s = max(0.01, min(horizons) - now) if horizons else 0.25

            conns = {w.conn: w for w in pool.values()}
            for conn in connection_wait(list(conns), wait_s):
                worker = conns[conn]
                if worker.wid not in pool:
                    continue  # already reaped this round
                try:
                    while conn.poll():
                        handle_message(worker, conn.recv())
                        if worker.wid not in pool:
                            break
                except (EOFError, OSError):
                    worker.proc.join(0.1)  # reap so exitcode is real
                    exitcode = worker.proc.exitcode
                    worker_died(worker, "crash",
                                f"worker crashed (exit code {exitcode})")

            # Health sweep: deadlines, stalls, silent deaths.
            now = time.monotonic()
            for worker in list(pool.values()):
                if not worker.proc.is_alive():
                    exitcode = worker.proc.exitcode
                    worker_died(worker, "crash",
                                f"worker crashed (exit code {exitcode})")
                    continue
                if timeout_s is not None and worker.current is not None \
                        and now - worker.busy_since > timeout_s:
                    held = worker.current
                    worker.current = None
                    dispose(worker)
                    stats.crashed += 1
                    emit("WORKER_CRASH", f"worker#{worker.wid}",
                         f"killed after cell deadline {timeout_s:g}s")
                    settle_failure(held[0], held[1],
                                   f"timed out after {timeout_s:g}s",
                                   worker_death=True)
                    continue
                if stall_exceeded(worker.last_beat, now, stall_timeout_s):
                    worker_died(worker, "stall",
                                f"no heartbeat for {stall_timeout_s:g}s")
    finally:
        for worker in list(pool.values()):
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
            dispose(worker)

    return stats


__all__ = ["CHAOS_ENV", "HEARTBEAT_INTERVAL_S", "POISON_STRIKES",
           "WorkerStateGuard", "WorkerStats", "run_persistent",
           "stall_exceeded"]
