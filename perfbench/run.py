"""Artefact-level benchmark of the HTTP/2 serialization-attack reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table2_attack --seed 1 \\
        --seconds 20 --trace 0

Runs the workload's committed inputs (see ``artefacts.py``) until
``--seconds`` have passed, checks every artefact against
``expected.json``, prints one line per metric and, as the last line, a
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` runs whole rounds of the inputs and reports
the end-to-end metrics, with CPU times scaled to a nominal host speed
(see ``hostspeed.py``); ``--trace 1`` runs each input untraced and then
traced and reports the per-layer metrics (see ``spans.py``), after
checking that both runs produced the same artefact.  Notes on the
workloads and metrics are in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from artefacts import (
    OUT_DIR,
    WORKLOADS,
    Iteration,
    Workload,
    ensure_importable,
    load_expected,
    rotation,
    run_iteration,
)
import hostspeed
from spans import COUNTERS, LAYERS, Tracer

PROBE = Path(__file__).resolve().parent / "probe.py"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "sessions_per_s": "1/s",
    "session_ms_p50": "ms",
    "session_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_share": "ratio",
}

#: Per-layer metrics (``--trace 1``), all per session unless a ratio.
PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "simnet.events": "count",
    "simnet.events_per_s": "1/s",
    "simnet.cancelled_share": "ratio",
    "tcp.retx_share": "ratio",
    "http2.dup_serve_share": "ratio",
    "core.report_ms": "ms",
    "runner.dispatch_ms_per_cell": "ms",
    "trace.overhead": "ratio",
}

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 9
#: Session samples a run needs so that ten lie beyond its p90.
MIN_SAMPLES = 110


def _check(workload: Workload, iterations: List[Iteration],
           expected: dict) -> List[str]:
    """Mismatches between each iteration's artefact and the committed one."""
    problems = []
    for it in iterations:
        want = expected.get(str(it.input_seed))
        if it.error is not None:
            problems.append(f"input {it.input_seed}: {it.error}")
        elif it.output != want:
            problems.append(f"input {it.input_seed}: artefact differs from "
                            f"expected.json: {it.output} != {want}")
    return problems


def _repeat(workload: Workload, seed: int, seconds: float, body,
            round_size: int, min_samples: int = 1) -> None:
    """Call ``body(input_seed)`` over the pool's rotation, cycling,
    until ``seconds`` have passed and ``body`` has gathered
    ``min_samples`` (it returns how many it has), stopping only after a
    whole multiple of ``round_size`` calls."""
    order = rotation(workload, seed)
    start = time.perf_counter()
    calls = 0
    while True:
        samples = body(order[calls % len(order)])
        calls += 1
        if (calls % round_size == 0 and samples >= min_samples
                and time.perf_counter() - start >= seconds):
            return


def _peak_rss_mb(workload: Workload) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.pooled:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _setup_s(workload: Workload, seed: int) -> float:
    """Median CPU time of a fresh interpreter that stops at the first
    dispatched session (see ``probe.py``), each scaled to the nominal
    host by a reference interpreter run just before it."""
    samples = []
    for _ in range(SETUP_PROBES):
        reference = hostspeed.launch_s()
        cpu, proc = hostspeed.child_cpu_s(
            [sys.executable, str(PROBE), workload.name, str(seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        reply = json.loads(proc.stdout.strip().splitlines()[-1])
        if "dispatched_at" not in reply:
            raise RuntimeError("setup probe dispatched no session")
        samples.append(cpu * hostspeed.NOMINAL_LAUNCH_S / reference)
    return statistics.median(samples)


def measured_run(workload: Workload, seed: int, seconds: float,
                 expected: dict) -> Tuple[dict, List[str]]:
    iterations: List[Iteration] = []

    def body(input_seed: int) -> int:
        iterations.append(run_iteration(workload, input_seed, OUT_DIR))
        return sum(len(it.cell_cpu_s) for it in iterations)

    _repeat(workload, seed, seconds, body, len(workload.pool), MIN_SAMPLES)
    peak_rss_mb = _peak_rss_mb(workload)
    attempted = sum(it.cells for it in iterations)
    failed = sum(it.failed for it in iterations)
    cells_ms = [s * 1000.0 for it in iterations for s in it.cell_nominal_s()]
    deciles = statistics.quantiles(cells_ms, n=10, method="inclusive")
    metrics = {
        "sessions_per_s": (attempted - failed)
        / sum(it.work_s / it.speed for it in iterations),
        "session_ms_p50": deciles[4],
        "session_ms_p90": deciles[8],
        "setup_s": _setup_s(workload, seed),
        "peak_rss_mb": peak_rss_mb,
        "completed_share": (attempted - failed) / attempted,
    }
    summary = {"attempted": attempted, "failed": failed,
               "samples": len(cells_ms), "iterations": len(iterations),
               "wall_s": round(sum(it.wall_s for it in iterations), 3),
               "host_speed": round(statistics.median(
                   it.speed for it in iterations), 3)}
    return ({"summary": summary, "metrics": metrics},
            _check(workload, iterations, expected))


def traced_run(workload: Workload, seed: int, seconds: float,
               expected: dict) -> Tuple[dict, List[str]]:
    plain: List[Iteration] = []
    traced: List[Iteration] = []
    tracer = Tracer()
    problems: List[str] = []

    def body(input_seed: int) -> int:
        plain.append(run_iteration(workload, input_seed, OUT_DIR))
        tracer.install()
        try:
            traced.append(run_iteration(workload, input_seed, OUT_DIR))
        finally:
            tracer.uninstall()
        if traced[-1].output != plain[-1].output:
            problems.append(f"input {input_seed}: traced artefact differs "
                            f"from the untraced one")
        return sum(it.cells for it in traced)

    _repeat(workload, seed, seconds, body, 1)
    problems += _check(workload, plain + traced, expected)

    pid = os.getpid()
    sessions = sum(it.cells for it in traced)
    self_ms = {layer: tracer.self_s[i] * 1000.0
               for i, layer in enumerate(LAYERS)}
    calls = {layer: tracer.calls[i] for i, layer in enumerate(LAYERS)}
    counters = dict(zip(COUNTERS, tracer.counters))
    summaries = [s for it in traced for s in it.summaries]
    for summary in summaries:
        if summary["pid"] == pid:
            continue  # ran inline: already in the tracer's totals
        for layer in LAYERS:
            self_ms[layer] += summary["layers"][layer][0]
            calls[layer] += summary["layers"][layer][1]
        for name in COUNTERS:
            counters[name] += summary["counters"][name]

    plain_grids = [grid for it in plain for grid in it.grids]
    plain_cells = sum(len(grid) for grid in plain_grids)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_ms[layer] / sessions
        metrics[f"{layer}.calls"] = calls[layer] / sessions
    metrics.update({
        "simnet.events": sum(s["events"] for s in summaries) / sessions,
        "simnet.events_per_s": sum(g.processed_events for g in plain_grids)
        / sum(s for it in plain for s in it.cell_nominal_s()),
        "simnet.cancelled_share": counters["cancelled"]
        / counters["scheduled"],
        "tcp.retx_share": counters["retransmits"]
        / counters["data_segments"],
        "http2.dup_serve_share": counters["dup_serves"] / counters["serves"],
        "core.report_ms": counters["report_s"] * 1000.0 / sessions,
        "runner.dispatch_ms_per_cell": 1000.0 * (sum(
            g.elapsed_s - g.wall_time_s for g in plain_grids)
            - sum(it.harness_s for it in plain)) / plain_cells,
        "trace.overhead": sum(it.work_s for it in traced)
        / sum(it.work_s for it in plain),
    })
    _write_sessions(workload, seed, summaries)
    attempted = sum(it.cells for it in plain + traced)
    failed = sum(it.failed for it in plain + traced)
    summary = {"attempted": attempted, "failed": failed,
               "sessions": sessions, "iterations": len(traced)}
    return {"summary": summary, "metrics": metrics}, problems


def _write_sessions(workload: Workload, seed: int,
                    summaries: List[dict]) -> None:
    """Write the per-session span totals, kept in memory until now."""
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for summary in summaries:
            handle.write(json.dumps(summary, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ensure_importable()
        expected = load_expected()[args.workload]
    except (OSError, KeyError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    # One CPU for the run, its pool worker and its set-up probes, so that
    # a session and the reference slice timed before it share a CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else measured_run
    report, problems = run(workload, args.seed, args.seconds, expected)
    units = PER_LAYER if args.trace else END_TO_END

    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in report["summary"].items()))
    for name, unit in units.items():
        print(f"  {name:30s} {report['metrics'][name]:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": report["summary"]["attempted"],
        "failed": report["summary"]["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
