"""``repro chaos`` -- fuzz sessions with invariant monitors armed.

The fuzzer draws :class:`repro.invariants.ChaosSpec`s from a master
seed (random topologies x session configs x fault plans x defense
stacks), runs each as one monitored session through the parallel
runner, and -- when a conservation law breaks -- minimizes the failing
spec with greedy delta debugging
(:func:`repro.invariants.shrink_candidates`) down to a small reproducer
written to disk.  A violation is a *finding*, not a grid death: cells
catch :class:`repro.invariants.InvariantViolation` and return it as
structured metrics, so one broken law never hides another.  The
campaign's table has one row per violation and per crashed cell, and
its two claims fail on either.
"""

from __future__ import annotations

import json
from argparse import ArgumentTypeError
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Sequence

from repro.core.phases import AttackConfig
from repro.defenses import apply_defense
from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import SessionConfig, run_session
from repro.http2.server import Http2ServerConfig
from repro.http2.settings import Http2Settings
from repro.invariants import ChaosSpec, InvariantViolation, generate_spec, \
    shrink_candidates
from repro.browser.browser import BrowserConfig
from repro.simnet.topology import TopologyConfig
from repro.website.objects import WebObject
from repro.website.sitemap import PageLoadPlan, PlannedRequest, Site

#: Runner cell for one fuzzed session.
CELL = "repro.experiments.chaos:run_cell"

#: Path of the synthetic page's document.
HTML_PATH = "/index.html"

#: Most shrinker session runs spent minimizing one violation.
SHRINK_BUDGET = 200


class ChaosSite(Site):
    """Synthetic site shaped by a spec: one HTML page plus N objects."""

    def __init__(self, html_size: int, object_sizes: Sequence[int]):
        super().__init__("chaos", "chaos.test")
        self.add(WebObject(HTML_PATH, html_size, content_type="text/html",
                           cacheable=False))
        for i, size in enumerate(object_sizes):
            self.add(WebObject(f"/obj/{i}", size))

    def plan_load(self, rng, page_id: int = 0) -> PageLoadPlan:
        """One page load: HTML, then the objects split across the
        parser-triggered and script-triggered phases (so random-order
        and batching defenses have something to act on)."""
        paths = [p for p in sorted(self.objects) if p != HTML_PATH]
        head = [PlannedRequest(p, gap_s=rng.uniform(0.0002, 0.004))
                for p in paths[::2]]
        scripted = [PlannedRequest(p, gap_s=rng.uniform(0.0002, 0.004))
                    for p in paths[1::2]]
        return PageLoadPlan(
            initial=[],
            html=PlannedRequest(HTML_PATH, weight=32),
            head_resources=head,
            scripted=scripted,
            exec_delay_s=rng.uniform(0.01, 0.06),
        )


def _session_config(spec: ChaosSpec) -> SessionConfig:
    """Assemble the monitored session a spec describes."""
    topology = TopologyConfig(
        client_bandwidth_bps=spec.client_bandwidth_bps,
        client_propagation_s=spec.client_propagation_s,
        server_propagation_s=spec.server_propagation_s,
        natural_jitter_mean_s=spec.natural_jitter_mean_s,
        natural_loss_rate=spec.natural_loss_rate,
        buffer_bytes=spec.buffer_bytes,
    )
    config = SessionConfig(
        seed=spec.seed,
        topology=topology,
        server=Http2ServerConfig(scheduler=spec.scheduler),
        browser=BrowserConfig(max_reconnects=spec.max_reconnects),
        attack=AttackConfig() if spec.attack else None,
        time_limit_s=spec.time_limit_s,
        site_factory=lambda: ChaosSite(spec.html_size, spec.object_sizes),
        client_settings=Http2Settings(
            initial_window_size=spec.initial_window_size),
        faults=[dict(event) for event in spec.fault_events] or None,
        monitors=True,
    )
    apply_defense(config, spec.defense,
                  sorted(set(spec.object_sizes)) or [spec.html_size])
    return config


def run_cell(seed: int, spec: dict) -> dict:
    """One monitored fuzzed session (JSON-able metrics).

    An invariant violation is reported *in* the metrics -- the cell
    still succeeds, so the grid completes and every violation across
    the campaign is visible, not just the first.
    """
    chaos_spec = ChaosSpec.from_jsonable(spec)
    try:
        result = run_session(_session_config(chaos_spec))
    except InvariantViolation as exc:
        violation = exc.violation
        return {
            "ok": False,
            "violation": violation.to_jsonable(),
            "broken_load": True,
            "sim_time_s": violation.at_s,
            "processed_events": 0,
        }
    return {
        "ok": True,
        "violation": None,
        "broken_load": bool(result.broken),
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


@dataclass
class ChaosFinding:
    """One violation, its minimized reproducer, and where it was saved."""

    index: int
    violation: dict
    spec: ChaosSpec
    minimized: ChaosSpec
    shrink_steps: List[str] = field(default_factory=list)
    shrink_runs: int = 0
    reproducer_path: Optional[str] = None


@dataclass
class ChaosResult:
    """Outcome of one chaos campaign."""

    seeds: int
    findings: List[ChaosFinding]
    #: Cells that died for non-invariant reasons (crash/timeout), as
    #: ``(index, error)`` pairs -- still a failed campaign.
    crashes: List[tuple]
    telemetry: Optional[GridTelemetry] = None

    @property
    def clean(self) -> bool:
        return not self.findings and not self.crashes

    def table(self) -> ResultTable:
        """One row per violation and one per crashed cell: a clean
        campaign prints the headers alone."""
        table = ResultTable(
            f"Chaos: {self.seeds} fuzzed session(s) with monitors armed",
            ["cell", "violation", "t (s)", "where", "shrink runs",
             "reproducer"])
        for finding in self.findings:
            violation = finding.violation
            table.add_row(finding.index, violation["code"],
                          f"{violation['at_s']:.6f}", violation["where"],
                          finding.shrink_runs,
                          finding.reproducer_path or "-")
        for index, error in self.crashes:
            table.add_row(index, "crashed", "-", error, "-", "-")
        return table

    def claims(self) -> List[Claim]:
        return [("every fuzzed session upholds every law", not self.findings),
                ("no fuzzed session crashed", not self.crashes)]


def shrink_failure(spec: ChaosSpec, violation_code: str) -> tuple:
    """Greedy delta debugging: keep any single-step reduction that still
    reproduces ``violation_code``, restart from it, stop at a fixpoint
    or after ``SHRINK_BUDGET`` session runs.  Returns
    ``(minimized_spec, steps_taken, runs_spent)``.
    """
    budget = SHRINK_BUDGET
    current = spec
    steps: List[str] = []
    runs = 0
    progress = True
    while progress and runs < budget:
        progress = False
        for description, candidate in shrink_candidates(current):
            if runs >= budget:
                break
            runs += 1
            try:
                metrics = run_cell(candidate.seed, candidate.to_jsonable())
            except Exception:
                continue  # candidate crashed differently; not a reduction
            violation = metrics.get("violation")
            if violation is not None and violation["code"] == violation_code:
                current = candidate
                steps.append(description)
                progress = True
                break
    return current, steps, runs


def write_reproducer(out_dir: Path, finding: ChaosFinding) -> Path:
    """Persist one minimized reproducer spec as JSON."""
    out_dir.mkdir(parents=True, exist_ok=True)
    code = finding.violation["code"].lower().replace("_", "-")
    path = out_dir / f"repro-{code}-{finding.index:04d}.json"
    payload = {
        "violation": finding.violation,
        "spec": finding.minimized.to_jsonable(),
        "original_spec": finding.spec.to_jsonable(),
        "shrink_steps": finding.shrink_steps,
        "shrink_runs": finding.shrink_runs,
        "replay": f"python -m repro chaos --replay {path}",
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_replay_spec(path: str) -> ChaosSpec:
    """Parse a reproducer file (or bare spec JSON) as the type of
    ``repro chaos --replay``: anything malformed is a usage error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ArgumentTypeError(
            f"invalid reproducer: cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArgumentTypeError(
            f"invalid reproducer: {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "spec" in data:
        data = data["spec"]
    try:
        return ChaosSpec.from_jsonable(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentTypeError(
            f"invalid reproducer: {path} is not a chaos spec: {exc}") from exc


def run_chaos(seeds: int = 25, master_seed: int = 0, shrink: bool = True,
              out_dir: str = "chaos-reproducers",
              replay: Optional[ChaosSpec] = None,
              **grid: Any) -> ChaosResult:
    """Run one chaos campaign; see module docstring.  ``replay`` runs a
    campaign of that one spec instead: it came from a reproducer, so it
    is neither shrunk nor written again."""
    chaos_specs = ([replay] if replay is not None
                   else [generate_spec(master_seed, i) for i in range(seeds)])
    grid_specs = [RunSpec.make(CELL, s.seed, spec=s.to_jsonable())
                  for s in chaos_specs]
    cells = run_grid(grid_specs, strict=False, **grid)

    findings: List[ChaosFinding] = []
    crashes: List[tuple] = []
    for index, result in enumerate(cells.results):
        if result.failed:
            crashes.append((index, result.error))
            continue
        violation = result.metrics.get("violation")
        if violation is None:
            continue
        finding = ChaosFinding(index=index, violation=violation,
                               spec=chaos_specs[index],
                               minimized=chaos_specs[index])
        if replay is None:
            if shrink:
                minimized, steps, runs = shrink_failure(
                    chaos_specs[index], violation["code"])
                finding.minimized = minimized
                finding.shrink_steps = steps
                finding.shrink_runs = runs
            finding.reproducer_path = str(
                write_reproducer(Path(out_dir), finding))
        findings.append(finding)

    return ChaosResult(seeds=len(chaos_specs), findings=findings,
                       crashes=crashes, telemetry=GridTelemetry().add(cells))
