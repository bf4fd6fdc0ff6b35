"""EF -- attack robustness under injected infrastructure faults.

The paper's attack assumes a quiet, reliable path: the gateway stays
up, the server never restarts, links do not flap.  This experiment
measures how the serialization attack degrades when that assumption
breaks -- sweeping a fault-intensity knob that scales the number and
length of deterministic link flaps, middlebox crashes, server stalls
and connection aborts injected into each session
(:func:`repro.faults.plan_for_intensity`).

Each cell carries its fault plan *inside* the
:class:`~repro.experiments.runner.RunSpec` params, so the plan is part
of the cache key and a cached cell can never be replayed against a
different schedule.  The sweep runs ``strict=False``: a cell that dies
anyway (worker crash, cell timeout) is reported with its reason rather
than aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.browser.browser import BrowserConfig
from repro.core.phases import AttackConfig
from repro.experiments.results import ResultTable
from repro.faults import plan_for_intensity
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import SessionConfig, run_session
from repro.website.isidewith import HTML_PATH, HTML_SIZE

#: Runner cell for one (seed, intensity) grid point.
CELL = "repro.experiments.faults_eval:run_cell"
#: Fault intensities of the sweep.
INTENSITIES = (0.0, 0.25, 0.5, 1.0)

#: Fresh connections the browser may dial per session in this
#: experiment (the recovery behaviour under test).
MAX_RECONNECTS = 2


@dataclass
class FaultPoint:
    """Aggregates at one fault intensity."""

    intensity: float
    html_serialized_pct: float
    html_identified_pct: float
    broken_pct: float
    mean_reconnects: float
    mean_stream_retries: float
    #: Mean absolute error of the adversary's best HTML size estimate,
    #: over the sessions where it produced any estimate at all.
    mean_size_error_bytes: float
    #: Successfully measured sessions / attempted sessions.
    n_ok: int
    n_cells: int


@dataclass
class FaultsEvalResult:
    """Fault-intensity sweep of the attack pipeline."""

    n_per_point: int
    points: List[FaultPoint]
    #: ``"intensity=I seed=S: reason"`` per permanently failed cell.
    failures: List[str]
    telemetry: Optional[GridTelemetry] = None

    def table(self) -> ResultTable:
        table = ResultTable(
            "EF: attack success vs injected fault intensity",
            ["intensity", "HTML serialized (%)", "HTML identified (%)",
             "broken (%)", "reconnects", "stream retries",
             "size err (B)", "ok cells"])
        for point in self.points:
            table.add_row(point.intensity, point.html_serialized_pct,
                          point.html_identified_pct, point.broken_pct,
                          point.mean_reconnects, point.mean_stream_retries,
                          point.mean_size_error_bytes,
                          f"{point.n_ok}/{point.n_cells}")
        return table


def run_cell(seed: int, intensity: float, plan: list) -> dict:
    """One attacked, fault-injected load (JSON-able metrics).

    ``plan`` is the JSON form of the cell's :class:`FaultPlan`; passing
    it explicitly (rather than regenerating from the seed inside) keeps
    the schedule visible in the spec and hashed into the cache key.
    """
    config = SessionConfig(
        seed=seed,
        attack=AttackConfig(),
        browser=BrowserConfig(max_reconnects=MAX_RECONNECTS),
        faults=plan,
    )
    result = run_session(config)
    identified = (result.report is not None
                  and "html" in result.report.predicted_labels)
    size_error: Optional[int] = None
    if result.report is not None and result.report.window_estimates:
        size_error = min(abs(e.size - HTML_SIZE)
                         for e in result.report.window_estimates)
    load = result.load
    return {
        "intensity": intensity,
        "serialized": bool(result.serialized(HTML_PATH)),
        "identified": bool(identified),
        "broken": bool(result.broken),
        "reset": bool(load is not None and load.resets > 0),
        "reconnects": int(load.reconnects) if load is not None else 0,
        "stream_retries": int(result.client.stream_retries),
        "faults_applied": len(result.injector.applied
                              if result.injector is not None else ()),
        "size_error_bytes": size_error,
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def run_faults_eval(n_per_point: int = 40, base_seed: int = 0,
                    **grid: Any) -> FaultsEvalResult:
    """Sweep fault intensity; 0.0 is the paper's quiet-path baseline."""
    specs = []
    for intensity in INTENSITIES:
        for i in range(n_per_point):
            seed = base_seed + i
            plan = plan_for_intensity(intensity, seed)
            specs.append(RunSpec.make(CELL, seed, intensity=intensity,
                                      plan=plan.to_jsonable()))
    runs = run_grid(specs, strict=False, **grid)

    by_intensity = runs.group_by("intensity")
    failures = [f"intensity={result.spec.kwargs()['intensity']} "
                f"seed={result.spec.seed}: {result.error}"
                for result in runs.failures]

    points: List[FaultPoint] = []
    for intensity in INTENSITIES:
        cells = by_intensity.get(intensity, [])
        n = max(1, len(cells))
        errors = [c["size_error_bytes"] for c in cells
                  if c["size_error_bytes"] is not None]
        points.append(FaultPoint(
            intensity=intensity,
            html_serialized_pct=100.0 * sum(c["serialized"]
                                            for c in cells) / n,
            html_identified_pct=100.0 * sum(c["identified"]
                                            for c in cells) / n,
            broken_pct=100.0 * sum(c["broken"] for c in cells) / n,
            mean_reconnects=sum(c["reconnects"] for c in cells) / n,
            mean_stream_retries=sum(c["stream_retries"] for c in cells) / n,
            mean_size_error_bytes=(sum(errors) / len(errors)
                                   if errors else 0.0),
            n_ok=len(cells),
            n_cells=n_per_point,
        ))
    return FaultsEvalResult(n_per_point=n_per_point, points=points,
                            failures=failures,
                            telemetry=GridTelemetry().add(runs))
