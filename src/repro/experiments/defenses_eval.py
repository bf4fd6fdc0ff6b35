"""E7b -- defenses against the serialization attack (Section VII).

Runs the full attack against: no defense, bucket padding, morphing,
randomized image order (the paper's proposal), and server push, and
reports how much of the preference order survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.phases import AttackConfig
from repro.defenses.morphing import MorphingDefense
from repro.defenses.padding import bucket_padding
from repro.defenses.push import push_client_settings, push_defense_server_config
from repro.defenses.random_order import shuffle_scripted_requests
from repro.experiments.evaluation import sequence_accuracy
from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import (
    GridTelemetry,
    RunCache,
    RunSpec,
    run_grid,
)
from repro.experiments.session import SessionConfig, run_session
from repro.http2.server import Http2ServerConfig
from repro.website.isidewith import (
    HTML_PATH,
    PARTY_IMAGE_SIZES,
    build_isidewith_site,
)

#: Runner cell for one (seed, defense) grid point.
CELL = "repro.experiments.defenses_eval:run_cell"


@dataclass
class DefenseOutcome:
    """Attack effectiveness under one defense."""

    name: str
    sequence_accuracy_pct: float
    html_identified_pct: float
    load_success_pct: float


@dataclass
class DefensesResult:
    """All defenses side by side."""

    n_per_defense: int
    outcomes: List[DefenseOutcome]
    telemetry: Optional[GridTelemetry] = None

    def table(self) -> ResultTable:
        table = ResultTable(
            "E7b: attack vs defenses (sequence recovery)",
            ["defense", "order recovered (%)", "HTML identified (%)",
             "page loads ok (%)"])
        for outcome in self.outcomes:
            table.add_row(outcome.name, outcome.sequence_accuracy_pct,
                          outcome.html_identified_pct,
                          outcome.load_success_pct)
        return table

    def claims(self) -> List[Claim]:
        """Every defense collapses order recovery without breaking pages."""
        by_name = {o.name: o for o in self.outcomes}
        if not set(DEFENSES) <= by_name.keys():
            return [("run covers every defense", False)]
        undefended = by_name["none"].sequence_accuracy_pct
        claims = [("undefended: order recovered >= 60 %", undefended >= 60.0)]
        claims += [(f"{name}: order recovered < half of undefended",
                    by_name[name].sequence_accuracy_pct < undefended / 2)
                   for name in DEFENSES[1:]]
        claims += [(f"{o.name}: page loads ok >= 80 %",
                    o.load_success_pct >= 80.0) for o in self.outcomes]
        return claims


def _session_config(seed: int, defense: str) -> SessionConfig:
    config = SessionConfig(seed=seed, attack=AttackConfig())
    if defense == "padding":
        server = Http2ServerConfig()
        server.pad_object = bucket_padding(16_384)
        config.server = server
    elif defense == "morphing":
        server = Http2ServerConfig()
        server.pad_object = MorphingDefense(
            sorted(PARTY_IMAGE_SIZES.values())).pad_object()
        config.server = server
    elif defense == "random-order":
        config.plan_transform = shuffle_scripted_requests
    elif defense == "push":
        site = build_isidewith_site()
        config.server = push_defense_server_config(site)
        config.client_settings = push_client_settings()
    elif defense == "batching":
        from repro.defenses.batching import BatchingBrowser
        config.browser_class = BatchingBrowser
    elif defense != "none":
        raise ValueError(f"unknown defense {defense!r}")
    return config


DEFENSES = ("none", "padding", "morphing", "random-order", "push",
            "batching")


def run_cell(seed: int, defense: str) -> dict:
    """One attacked load under one defense (JSON-able metrics).

    The spec carries the defense *name*, never the configured
    :class:`SessionConfig` -- the config holds callables and server
    objects that neither pickle for workers nor hash for the cache.
    """
    result = run_session(_session_config(seed, defense))
    identified = (result.report is not None
                  and "html" in result.report.predicted_labels)
    return {
        "sequence_accuracy": sequence_accuracy(result),
        "html_identified": bool(identified),
        "load_ok": bool(result.load is not None and result.load.success),
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def run_defenses(n_per_defense: int = 30, base_seed: int = 0,
                 defenses: Sequence[str] = DEFENSES,
                 cache: Optional[RunCache] = None,
                 cell_timeout_s: Optional[float] = None,
                 retries: int = 0,
                 workers: int = 0) -> DefensesResult:
    """Run the attack under each defense."""
    specs = [RunSpec.make(CELL, base_seed + i, defense=defense)
             for defense in defenses for i in range(n_per_defense)]
    grid = run_grid(specs, cache=cache, timeout_s=cell_timeout_s,
                    retries=retries, workers=workers)

    by_defense: Dict[str, List[dict]] = {d: [] for d in defenses}
    for result in grid:
        by_defense[result.spec.kwargs()["defense"]].append(result.metrics)

    outcomes: List[DefenseOutcome] = []
    for defense in defenses:
        cells = by_defense[defense]
        outcomes.append(DefenseOutcome(
            name=defense,
            sequence_accuracy_pct=100.0 * sum(c["sequence_accuracy"]
                                              for c in cells)
                                  / n_per_defense,
            html_identified_pct=100.0 * sum(c["html_identified"]
                                            for c in cells) / n_per_defense,
            load_success_pct=100.0 * sum(c["load_ok"]
                                         for c in cells) / n_per_defense,
        ))
    return DefensesResult(n_per_defense=n_per_defense, outcomes=outcomes,
                          telemetry=GridTelemetry().add(grid))
