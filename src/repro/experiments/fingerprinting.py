"""E7a -- ML classification of encrypted traces (Section VII future work).

Two questions:

1. Can standard classifiers read the user's *first party* from a trace?
   Near chance (12.5 %) without the attack; near perfect with it.
2. The classic page-fingerprinting attack over H1 vs H2 on a generated
   site (the related-work baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.analysis.crossval import cross_validate
from repro.analysis.forest import RandomForestClassifier
from repro.analysis.knn import KNeighborsClassifier
from repro.analysis.nbayes import GaussianNBClassifier
from repro.experiments.datasets import (
    build_first_party_dataset,
    build_page_dataset,
)
from repro.experiments.results import Claim, ResultTable

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


def _evaluate(dataset, n_folds: int = 4) -> Dict[str, float]:
    """Mean cross-validated accuracy per classifier; empty when the
    labels are too few to split into two folds."""
    scores = {name: cross_validate(factory, dataset.X, dataset.y,
                                   n_folds=n_folds)
              for name, factory in CLASSIFIERS.items()}
    return {name: stats["mean_accuracy"] for name, stats in scores.items()
            if stats["folds"]}


def _passive_partial_rates(n_loads: int, base_seed: int):
    """Run the tail-residue analyzer passively over clean loads."""
    from repro.core.deinterleave import PartialMultiplexAnalyzer
    from repro.experiments.session import (SessionConfig, isidewith_size_map,
                                           run_session)
    from repro.simnet.middlebox import SERVER_TO_CLIENT

    first_hits = 0
    order_hits = 0
    for i in range(n_loads):
        result = run_session(SessionConfig(seed=base_seed + i))
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
        first_hits += bool(sequence) and sequence[0] == permutation[0]
        order_hits += sequence == permutation
    return (100.0 * first_hits / n_loads, 100.0 * order_hits / n_loads)


def run_fingerprinting(n_loads: int = 48, n_pages: int = 8,
                       loads_per_page: int = 5,
                       base_seed: int = 0) -> FingerprintingResult:
    """Build all datasets and cross-validate every classifier.

    ``base_seed`` offsets each dataset's own base seed (passive loads
    700, first-party loads 100, page loads 300).
    """
    passive_first, passive_order = _passive_partial_rates(
        max(10, n_loads // 3), base_seed=700 + base_seed)
    attack, jitter, none = (
        build_first_party_dataset(n_loads=n_loads, mode=mode,
                                  base_seed=100 + base_seed)
        for mode in ("attack", "jitter", "none"))
    h1, h2 = (
        build_page_dataset(n_pages=n_pages, loads_per_page=loads_per_page,
                           protocol=protocol, base_seed=300 + base_seed)
        for protocol in ("h1", "h2"))
    return FingerprintingResult(
        decoded_first_party_pct=100.0 * (
            attack.meta["decoded_first_party_accuracy"] or 0.0),
        passive_partial_first_pct=passive_first,
        passive_partial_order_pct=passive_order,
        first_party_attack=_evaluate(attack),
        first_party_jitter=_evaluate(jitter),
        first_party_none=_evaluate(none),
        page_h1=_evaluate(h1),
        page_h2=_evaluate(h2),
    )
