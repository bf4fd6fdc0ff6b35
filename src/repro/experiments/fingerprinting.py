"""E7a -- ML classification of encrypted traces (Section VII future work).

Two questions:

1. Can standard classifiers read the user's *first party* from a trace?
   Without the attack, multiplexing garbles the object sizes and
   accuracy sits near chance (12.5 %); with the serialization attack
   the first emblem image is directly readable.  The first-party
   datasets run three adversaries: the full attack (features are the
   adversary's decoded burst positions, so the classifier measures how
   learnable the decoded signal is), jitter only (traces *partly*
   multiplexed, the regime the paper's future work targets; features
   are size-map-anchored ranks) and none (the privacy H2 was hoped to
   give).
2. The classic page-fingerprinting attack over H1 vs H2 on a generated
   site (the related-work baseline).

The cells here drive the simulations; the pure feature/label container
they fill (:class:`repro.analysis.fingerprint.FingerprintDataset`) and
the classifiers that consume it stay in the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.analysis.crossval import cross_validate
from repro.analysis.features import (
    TraceFeatureExtractor,
    known_size_rank_feature,
)
from repro.analysis.fingerprint import FingerprintDataset
from repro.analysis.forest import RandomForestClassifier
from repro.analysis.knn import KNeighborsClassifier
from repro.analysis.nbayes import GaussianNBClassifier
from repro.browser.browser import BrowserConfig
from repro.core.deinterleave import PartialMultiplexAnalyzer
from repro.core.phases import AttackConfig, jitter_only_config
from repro.experiments.results import Claim, ResultTable
from repro.experiments.runner import GridTelemetry, RunSpec, run_grid
from repro.experiments.session import (
    SessionConfig,
    SessionRig,
    isidewith_size_map,
    run_session,
)
from repro.http1.client import Http1Client
from repro.http1.server import Http1Server
from repro.simnet.middlebox import SERVER_TO_CLIENT
from repro.simnet.topology import TopologyConfig
from repro.website.generator import RandomSiteBuilder
from repro.website.isidewith import PARTIES, PARTY_IMAGE_SIZES

#: Runner cells: one clean load read by the tail-residue analyzer, one
#: survey load labelled with the user's first party, and one
#: generated-site page load labelled with its page.
PASSIVE_CELL = "repro.experiments.fingerprinting:passive_partial_cell"
FIRST_PARTY_CELL = "repro.experiments.fingerprinting:first_party_cell"
PAGE_CELL = "repro.experiments.fingerprinting:page_cell"

#: Adversaries of the first-party datasets.
FIRST_PARTY_MODES = ("attack", "jitter", "none")

#: Cross-validation folds per dataset.
CV_FOLDS = 4

CLASSIFIERS: Dict[str, Callable] = {
    "kNN (k=3)": lambda: KNeighborsClassifier(k=3),
    "naive Bayes": lambda: GaussianNBClassifier(),
    "random forest": lambda: RandomForestClassifier(n_trees=15, max_depth=8),
}


@dataclass
class FingerprintingResult:
    """Cross-validated accuracies for both question families."""

    decoded_first_party_pct: float
    #: The Section VII tail-residue analyzer run *passively* (no
    #: adversary): first-party and full-order recovery rates.
    passive_partial_first_pct: float
    passive_partial_order_pct: float
    first_party_attack: Dict[str, float]
    first_party_jitter: Dict[str, float]
    first_party_none: Dict[str, float]
    page_h1: Dict[str, float]
    page_h2: Dict[str, float]
    telemetry: Optional[GridTelemetry] = None

    def table(self) -> ResultTable:
        table = ResultTable(
            "E7a: reading the first party / page id from encrypted traces",
            ["task", "method", "accuracy (%)", "chance (%)"])
        table.add_row("first party, full attack", "deterministic decode",
                      self.decoded_first_party_pct, 12.5)
        table.add_row("first party, no adversary", "tail-residue analyzer",
                      self.passive_partial_first_pct, 12.5)
        table.add_row("full order, no adversary", "tail-residue analyzer",
                      self.passive_partial_order_pct, 0.002)
        for name, accuracy in self.first_party_attack.items():
            table.add_row("first party, full attack", name,
                          accuracy * 100, 12.5)
        for name, accuracy in self.first_party_jitter.items():
            table.add_row("first party, jitter only (partly muxed)", name,
                          accuracy * 100, 12.5)
        for name, accuracy in self.first_party_none.items():
            table.add_row("first party, no adversary", name,
                          accuracy * 100, 12.5)
        for name, accuracy in self.page_h1.items():
            table.add_row("page id, HTTP/1.1", name, accuracy * 100,
                          100.0 / 8)
        for name, accuracy in self.page_h2.items():
            table.add_row("page id, HTTP/2", name, accuracy * 100,
                          100.0 / 8)
        return table

    def claims(self) -> List[Claim]:
        # A dataset too small to cross-validate has no accuracies, and
        # a claim about its best classifier fails rather than crashing.
        best_none = _best(self.first_party_none)
        best_h1 = _best(self.page_h1)
        best_h2 = _best(self.page_h2)
        return [
            ("full attack decodes the first party in >= 70 % of loads",
             self.decoded_first_party_pct >= 70.0),
            ("no adversary: best classifier < 45 % on the first party",
             best_none is not None and best_none < 0.45),
            ("page id over HTTP/1.1: best classifier > 80 %",
             best_h1 is not None and best_h1 > 0.8),
            ("page id over HTTP/2: best classifier > 80 %",
             best_h2 is not None and best_h2 > 0.8),
        ]


def _best(accuracies: Dict[str, float]) -> Optional[float]:
    return max(accuracies.values(), default=None)


def _evaluate(dataset) -> Dict[str, float]:
    """Mean cross-validated accuracy per classifier; empty when the
    labels are too few to split into two folds."""
    scores = {name: cross_validate(factory, dataset.X, dataset.y,
                                   n_folds=CV_FOLDS)
              for name, factory in CLASSIFIERS.items()}
    return {name: stats["mean_accuracy"] for name, stats in scores.items()
            if stats["folds"]}


def passive_partial_cell(seed: int) -> dict:
    """Run the tail-residue analyzer passively over one clean load:
    did it recover the first party, and the full order?"""
    result = run_session(SessionConfig(seed=seed))
    census = [obj.size for obj in result.site.objects.values()]
    analyzer = PartialMultiplexAnalyzer(census)
    size_map = isidewith_size_map(result.site)
    matches = analyzer.analyze(
        result.trace.completed_records(SERVER_TO_CLIENT))
    seen = set()
    sequence = []
    for match in matches:
        if not match.confident:
            continue
        label = size_map.identify(match.size)
        if label and label != "html" and label not in seen:
            seen.add(label)
            sequence.append(label)
    permutation = list(result.permutation)
    return {
        "first_hit": bool(sequence) and sequence[0] == permutation[0],
        "order_hit": sequence == permutation,
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def first_party_cell(seed: int, mode: str) -> dict:
    """One survey load: its feature row, its first party and whether
    the adversary's decoding put that party first."""
    if mode == "attack":
        attack_config = AttackConfig()
    elif mode == "jitter":
        attack_config = jitter_only_config(0.05)
    else:
        attack_config = None
    result = run_session(SessionConfig(seed=seed, attack=attack_config))
    decoded_hit = False
    if mode == "attack" and result.report is not None:
        # The adversary's decoded burst: position of each party in
        # the predicted sequence (9 = not recovered).
        sequence = [label for label in result.report.predicted_labels
                    if label != "html"]
        positions = {label: j + 1 for j, label in enumerate(sequence)}
        features = [float(positions.get(p, 9)) for p in PARTIES]
        decoded_hit = bool(sequence) and sequence[0] == result.permutation[0]
    else:
        since = 0.0
        if result.report is not None:
            since = result.report.phase_times.get("serialize", 0.0)
        features = known_size_rank_feature(
            result.trace, [PARTY_IMAGE_SIZES[p] for p in PARTIES],
            since=since).tolist()
    return {
        "features": features,
        "label": result.permutation[0],
        "decoded_hit": decoded_hit,
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def page_cell(seed: int, page_id: int, protocol: str, n_pages: int) -> dict:
    """One page load's feature row, labelled with its page."""
    load = _h2_page_load if protocol == "h2" else _h1_page_load
    trace, sim_time_s, processed_events = load(page_id, seed, n_pages)
    return {"features": TraceFeatureExtractor().extract(trace).tolist(),
            "label": page_id,
            "sim_time_s": sim_time_s,
            "processed_events": processed_events}


def _h2_page_load(page_id: int, seed: int, n_pages: int):
    """One HTTP/2 page load: ``(trace, sim time, executed events)``."""
    config = SessionConfig(
        seed=seed,
        site_factory=lambda: RandomSiteBuilder(n_pages=n_pages).build(),
        page_id=page_id,
        browser=BrowserConfig(page_timeout_s=20.0),
        time_limit_s=25.0,
    )
    result = run_session(config)
    return result.trace, result.duration_s, result.processed_events


def _h1_page_load(page_id: int, seed: int, n_pages: int):
    """One HTTP/1.1 page load, HTML first and embedded objects
    pipelined: ``(trace, sim time, executed events)``."""
    rig = SessionRig(seed, TopologyConfig(), monitors=False)
    sim = rig.sim
    site = RandomSiteBuilder(n_pages=n_pages).build()
    Http1Server(sim, rig.topo.server, site)
    client = Http1Client(sim, rig.topo.client)
    page = site.pages[page_id]
    completed: List[object] = []

    def on_html(exchange) -> None:
        completed.append(exchange)
        for path in page.embedded:
            client.request(path, on_complete=completed.append)

    client.connect(lambda: client.request(page.html_path, on_complete=on_html))
    rig.run_until(lambda: len(completed) > len(page.embedded), 20.0,
                  step_s=0.5)
    return rig.topo.trace, sim.now, sim.processed_events


def _dataset(cells: List[dict], **meta: object) -> FingerprintDataset:
    """Stack the cells' feature rows and labels, in cell order."""
    return FingerprintDataset(
        X=np.vstack([np.array(cell["features"]) for cell in cells]),
        y=np.array([cell["label"] for cell in cells]), meta=meta)


def run_fingerprinting(n_loads: int = 48, base_seed: int = 0,
                       n_pages: int = 8, loads_per_page: int = 5,
                       **grid: Any) -> FingerprintingResult:
    """Build all datasets in one grid and cross-validate every classifier.

    ``base_seed`` offsets each dataset's own base seed (passive loads
    700, first-party loads 100, page loads 300).
    """
    n_passive = max(10, n_loads // 3)
    groups = [[RunSpec.make(PASSIVE_CELL, 700 + base_seed + i)
               for i in range(n_passive)]]
    groups += [[RunSpec.make(FIRST_PARTY_CELL, 100 + base_seed + i, mode=mode)
                for i in range(n_loads)] for mode in FIRST_PARTY_MODES]
    groups += [[RunSpec.make(PAGE_CELL, 300 + base_seed + page_id * 101 + rep,
                             page_id=page_id, protocol=protocol,
                             n_pages=n_pages)
                for page_id in range(n_pages)
                for rep in range(loads_per_page)]
               for protocol in ("h1", "h2")]
    runs = run_grid([spec for group in groups for spec in group], **grid)
    cells = iter(runs.metrics())
    passive, attack, jitter, none, h1, h2 = (
        [next(cells) for _ in group] for group in groups)

    first_party = [_evaluate(_dataset(group, mode=mode, n_loads=n_loads))
                   for mode, group in zip(FIRST_PARTY_MODES,
                                          (attack, jitter, none))]
    page = [_evaluate(_dataset(group, protocol=protocol, n_pages=n_pages,
                               loads_per_page=loads_per_page))
            for protocol, group in (("h1", h1), ("h2", h2))]
    return FingerprintingResult(
        decoded_first_party_pct=100.0 * (
            sum(cell["decoded_hit"] for cell in attack) / n_loads),
        passive_partial_first_pct=100.0 * sum(
            cell["first_hit"] for cell in passive) / n_passive,
        passive_partial_order_pct=100.0 * sum(
            cell["order_hit"] for cell in passive) / n_passive,
        first_party_attack=first_party[0],
        first_party_jitter=first_party[1],
        first_party_none=first_party[2],
        page_h1=page[0],
        page_h2=page[1],
        telemetry=GridTelemetry().add(runs),
    )
