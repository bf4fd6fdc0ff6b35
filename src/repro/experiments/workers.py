"""Forked worker pool for the experiment runner.

The runner's process-backed dispatch path (``workers=N``, or any grid
with a cell deadline).  Each slot is one forked process plus a duplex
pipe carrying one in-flight ``(index, spec)``; workers run cells with
:func:`~repro.experiments.runner.execute_spec` and send back metrics.
Results are byte-identical to inline execution because cells are pure
functions of their spec and the caller places results by spec index.

* **Crashes.**  A dead worker (segfault, ``os._exit``, kill -9) shows
  as EOF on its pipe: its cell gets a *strike* and is retried or failed
  as ``worker crashed (exit code N)``, and a fresh worker takes the slot.
* **Deadlines.**  A cell past ``timeout_s`` has its worker killed; it
  gets a strike and the reason ``timed out after Ns``.
* **Poison.**  A cell with ``POISON_STRIKES`` consecutive strikes fails
  as ``poison:``, however many retries remain.
* **Orphans.**  An idle worker exits once its parent changes.

A SIGSTOPped or wedged worker blocks a grid without a deadline, as such
a cell blocks an inline run.  This module is on the DET002 wall-clock
allowlist: cell deadlines and retry backoff are real-time concepts.
"""

from __future__ import annotations

import math
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.runner import (
    RunResult,
    RunSpec,
    _failed_result,
    _retry_delay,
    execute_spec,
)

#: Consecutive worker deaths before a cell is quarantined.
POISON_STRIKES = 3

#: How often an idle worker checks that its supervisor is alive (s).
ORPHAN_POLL_S = 0.5

#: Environment variable for deterministic fault injection in smoke
#: tests: ``kill-one`` SIGKILLs one worker after the first result.
CHAOS_ENV = "REPRO_WORKER_CHAOS"


def _worker_main(conn) -> None:
    """Loop: receive ``(index, spec)``, reply ``(error, RunResult)``.
    Later workers hold copies of this pipe's supervisor end, so a dead
    supervisor never shows as EOF: watch the parent pid instead.
    """
    supervisor_pid = os.getppid()
    while True:
        try:
            while not conn.poll(ORPHAN_POLL_S):
                if os.getppid() != supervisor_pid:
                    os._exit(2)
            _, spec = conn.recv()
            try:
                reply = (None, execute_spec(spec))
            except BaseException as exc:
                reply = (f"{type(exc).__name__}: {exc}", None)
            conn.send(reply)
        except (EOFError, OSError):
            return


@dataclass
class WorkerStats:
    """Worker-pool telemetry for one grid (rides on GridResult)."""

    spawned: int = 0
    crashed: int = 0
    poisoned: int = 0

    def merge(self, other: "WorkerStats") -> "WorkerStats":
        self.spawned += other.spawned
        self.crashed += other.crashed
        self.poisoned += other.poisoned
        return self

    def line(self) -> str:
        parts = [f"{self.spawned} spawned"]
        if self.crashed:
            parts.append(f"{self.crashed} crashed")
        if self.poisoned:
            parts.append(f"{self.poisoned} poisoned cell(s)")
        return "workers: " + ", ".join(parts)


@dataclass
class _Slot:
    """Supervisor-side handle for one live worker process."""

    proc: Any
    conn: Any
    #: ``(spec index, prior attempts, deadline)`` while busy.
    held: Optional[Tuple[int, int, float]] = None


def run_persistent(specs: List[RunSpec], misses: List[int], *,
                   workers: int,
                   on_result: Callable[[int, RunResult], None],
                   timeout_s: Optional[float] = None,
                   retries: int = 0) -> WorkerStats:
    """Execute ``specs[misses]`` on a pool of forked workers.

    Calls ``on_result(index, result)`` exactly once per miss, in
    completion order, and returns the pool's :class:`WorkerStats`.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context()
    target = max(1, min(workers, len(misses)))
    chaos = os.environ.get(CHAOS_ENV, "") == "kill-one"
    stats = WorkerStats()
    #: (spec index, prior attempts, earliest dispatch time).
    pending = deque((index, 0, 0.0) for index in misses)
    left = len(misses)
    strikes: Dict[int, int] = {}
    pool: List[_Slot] = []

    def settle(index: int, result: RunResult) -> None:
        nonlocal left
        on_result(index, result)
        left -= 1

    def attempt_failed(index: int, prior: int, reason: str,
                       worker_death: bool) -> None:
        """One attempt ended badly: strike, then retry or fail."""
        if worker_death:
            strikes[index] = count = strikes.get(index, 0) + 1
            if count >= POISON_STRIKES:
                stats.poisoned += 1
                settle(index, _failed_result(
                    specs[index], f"poison: cell killed {count} consecutive "
                    f"workers; quarantined (last: {reason})", prior + 1))
                return
        else:
            strikes.pop(index, None)
        if prior < retries:
            pending.append((index, prior + 1,
                            time.monotonic() + _retry_delay(prior)))
        else:
            settle(index, _failed_result(specs[index], reason, prior + 1))

    def spawn() -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=_worker_main, args=(child_conn,),
                           daemon=True)
        with child_conn:  # the worker's end lives on only in the worker
            proc.start()
        pool.append(_Slot(proc=proc, conn=parent_conn))
        stats.spawned += 1

    def retire(slot: _Slot) -> None:
        pool.remove(slot)
        slot.conn.close()
        slot.proc.kill()
        slot.proc.join()

    def lost(slot: _Slot, reason: Optional[str] = None) -> None:
        """A worker died or overran its deadline: reap it and strike
        the cell it held."""
        retire(slot)
        stats.crashed += 1
        if slot.held is not None:
            index, prior, _ = slot.held
            attempt_failed(index, prior, reason or
                           f"worker crashed (exit code {slot.proc.exitcode})",
                           worker_death=True)

    try:
        while left:
            while pending and len(pool) < min(target, left):
                try:
                    spawn()
                except OSError as exc:
                    while pending:
                        index, prior, _ = pending.popleft()
                        settle(index, _failed_result(
                            specs[index], f"worker spawn failed: {exc}",
                            prior + 1))
            if not left:
                break

            now = time.monotonic()
            for slot in [s for s in pool if s.held is None]:
                job = next((j for j in pending if j[2] <= now), None)
                if job is None:
                    break
                pending.remove(job)
                try:
                    slot.conn.send((job[0], specs[job[0]]))
                except (OSError, ValueError):
                    # Died while idle: the cell is not charged, and the
                    # wait below reaps the worker on its EOF.
                    pending.appendleft(job)
                    continue
                slot.held = (job[0], job[1], math.inf if timeout_s is None
                             else now + timeout_s)

            soonest = min([s.held[2] for s in pool if s.held is not None]
                          + [j[2] for j in pending if j[2] > now],
                          default=math.inf)
            wait_s = None if soonest == math.inf else max(0.0, soonest - now)
            by_conn = {s.conn: s for s in pool}
            for conn in wait(list(by_conn), wait_s):
                slot = by_conn[conn]
                try:
                    error, result = conn.recv()
                except (EOFError, OSError):
                    lost(slot)
                    continue
                index, prior, _ = slot.held
                slot.held = None
                if error is not None:
                    attempt_failed(index, prior, error, worker_death=False)
                    continue
                strikes.pop(index, None)
                result.attempts = prior + 1
                settle(index, result)
                if chaos:
                    chaos = False
                    victim = next((s for s in pool if s is not slot), slot)
                    os.kill(victim.proc.pid, signal.SIGKILL)

            now = time.monotonic()
            for slot in [s for s in pool
                         if s.held is not None and s.held[2] <= now]:
                lost(slot, f"timed out after {timeout_s:g}s")
    finally:
        for slot in list(pool):
            retire(slot)
    return stats


__all__ = ["CHAOS_ENV", "POISON_STRIKES", "WorkerStats", "run_persistent"]
