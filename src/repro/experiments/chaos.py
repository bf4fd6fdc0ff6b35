"""``repro chaos`` -- fuzz sessions with invariant monitors armed.

The fuzzer draws :class:`repro.invariants.ChaosSpec`s from a master
seed (random topologies x session configs x fault plans x defense
stacks), runs each as one monitored session through the parallel
runner, and -- when a conservation law breaks -- minimizes the failing
spec with greedy delta debugging
(:func:`repro.invariants.shrink_candidates`) down to a small reproducer
written to disk.  A violation is a *finding*, not a grid death: cells
catch :class:`repro.invariants.InvariantViolation` and return it as
structured metrics, so one broken law never hides another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Sequence

from repro.core.phases import AttackConfig
from repro.defenses import apply_defense
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import SessionConfig, run_session
from repro.faults.plan import FaultPlan
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


def shrink_failure(spec: ChaosSpec, violation_code: str,
                   budget: int = 200) -> tuple:
    """Greedy delta debugging: keep any single-step reduction that still
    reproduces ``violation_code``, restart from it, stop at a fixpoint
    or after ``budget`` session runs.  Returns
    ``(minimized_spec, steps_taken, runs_spent)``.
    """
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


def run_chaos(seeds: int = 25, master_seed: int = 0,
              plan: Optional[FaultPlan] = None,
              shrink: bool = True, shrink_budget: int = 200,
              out_dir: str = "chaos-reproducers",
              **grid: Any) -> ChaosResult:
    """Run one chaos campaign; see module docstring."""
    chaos_specs = [generate_spec(master_seed, i) for i in range(seeds)]
    if plan is not None:
        events = tuple(plan.sorted().to_jsonable())
        chaos_specs = [ChaosSpec.from_jsonable(
            dict(s.to_jsonable(), fault_events=list(events)))
            for s in chaos_specs]

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
        if shrink:
            minimized, steps, runs = shrink_failure(
                chaos_specs[index], violation["code"], budget=shrink_budget)
            finding.minimized = minimized
            finding.shrink_steps = steps
            finding.shrink_runs = runs
        finding.reproducer_path = str(
            write_reproducer(Path(out_dir), finding))
        findings.append(finding)

    return ChaosResult(seeds=seeds, findings=findings, crashes=crashes,
                       telemetry=GridTelemetry().add(cells))


# -- CLI ------------------------------------------------------------------


def _load_fault_plan(path: str) -> FaultPlan:
    """Parse a fault-plan JSON file; raises ValueError with a one-line
    reason on anything malformed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError(f"{path}: a fault plan is a JSON *list* of "
                         f"events, got {type(data).__name__}")
    try:
        return FaultPlan.from_jsonable(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_replay_spec(path: str) -> ChaosSpec:
    """Parse a reproducer file (or bare spec JSON); one-line errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "spec" in data:
        data = data["spec"]
    try:
        return ChaosSpec.from_jsonable(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} is not a chaos spec: {exc}") from exc


def run_chaos_command(args, **grid: Any) -> int:
    """Back the ``repro chaos`` subcommand.  Exit codes: 0 all laws
    held, 1 violation or crashed cell, 2 usage error."""
    if args.seeds <= 0:
        print(f"error: --seeds must be a positive integer, got {args.seeds}",
              file=_stderr())
        return 2
    if args.budget <= 0:
        print(f"error: --budget must be a positive integer, got {args.budget}",
              file=_stderr())
        return 2

    plan: Optional[FaultPlan] = None
    if args.plan is not None:
        try:
            plan = _load_fault_plan(args.plan)
        except ValueError as exc:
            print(f"error: invalid fault plan: {exc}", file=_stderr())
            return 2

    if args.replay is not None:
        try:
            spec = _load_replay_spec(args.replay)
        except ValueError as exc:
            print(f"error: invalid reproducer: {exc}", file=_stderr())
            return 2
        metrics = run_cell(spec.seed, spec.to_jsonable())
        violation = metrics.get("violation")
        if violation is None:
            print(f"replay of {args.replay}: all invariants held "
                  f"(sim_time={metrics['sim_time_s']:.3f}s)")
            return 0
        print(f"replay of {args.replay}: [{violation['code']}] "
              f"t={violation['at_s']:.6f}s {violation['where']}: "
              f"{violation['message']}")
        return 1

    result = run_chaos(seeds=args.seeds, master_seed=args.seed, plan=plan,
                       shrink=not args.no_shrink, shrink_budget=args.budget,
                       out_dir=args.out, **grid)

    for finding in result.findings:
        violation = finding.violation
        print(f"VIOLATION #{finding.index}: [{violation['code']}] "
              f"t={violation['at_s']:.6f}s {violation['where']}: "
              f"{violation['message']}")
        if finding.shrink_steps:
            print(f"  shrunk in {finding.shrink_runs} runs: "
                  + "; ".join(finding.shrink_steps))
        print(f"  reproducer: {finding.reproducer_path}")
    for index, error in result.crashes:
        print(f"CRASHED cell #{index}: {error}")

    if result.telemetry is not None:
        print(result.telemetry.line())
    if result.clean:
        print(f"chaos: {result.seeds} seeds, all invariants held")
        return 0
    print(f"chaos: {len(result.findings)} violation(s), "
          f"{len(result.crashes)} crash(es) across {result.seeds} seeds")
    return 1


def _stderr():
    import sys
    return sys.stderr
