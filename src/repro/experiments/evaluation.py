"""Success criteria (Section V).

The paper: "We consider our attack to be successful only when the
adversary is able to bring down the degree of multiplexing of the object
of interest to 0% and identify it from the encrypted traffic."

Two evaluation modes mirror Table II's two rows:

* **one object at a time** -- the adversary cares about a single object;
  success requires that object serialized and its size identified
  anywhere in the serialize window (order is irrelevant for one object).
* **all objects at a time** -- the adversary reconstructs the full
  preference order; image *i* succeeds only when it is serialized *and*
  the predicted sequence names the right party at position *i*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.session import SessionResult
from repro.website.isidewith import HTML_PATH, IsideWithSite


@dataclass
class Table2Outcome:
    """Per-session evaluation against the Table II criteria."""

    html_single: bool
    html_all: bool
    image_single: List[bool]
    image_all: List[bool]
    broken: bool
    resets: int

    @property
    def all_correct(self) -> bool:
        return self.html_all and all(self.image_all)


def evaluate_table2(result: SessionResult) -> Table2Outcome:
    """Apply the paper's success criteria to one attack session."""
    if result.report is None:
        raise ValueError("session ran without an attack")
    permutation = list(result.permutation)
    labels = result.report.predicted_labels
    party_sequence = [label for label in labels if label != "html"]
    identified = set(labels)

    html_serialized = result.serialized(HTML_PATH)
    html_identified = "html" in identified
    html_single = html_serialized and html_identified
    html_all = html_single

    image_single: List[bool] = []
    image_all: List[bool] = []
    for position, party in enumerate(permutation):
        path = IsideWithSite.image_path(party)
        serialized = result.serialized(path)
        image_single.append(serialized and party in identified)
        in_position = (position < len(party_sequence)
                       and party_sequence[position] == party)
        image_all.append(serialized and in_position)

    return Table2Outcome(
        html_single=html_single,
        html_all=html_all,
        image_single=image_single,
        image_all=image_all,
        broken=result.broken,
        resets=result.load.resets if result.load else 0,
    )


def aggregate_table2(outcomes: Sequence[Table2Outcome]) -> Dict[str, object]:
    """Success percentages in the layout of the paper's Table II."""
    n = len(outcomes)
    if n == 0:
        raise ValueError("no outcomes to aggregate")

    def pct(values) -> float:
        return 100.0 * sum(values) / n

    return {
        "n": n,
        "single": [pct([o.html_single for o in outcomes])]
                  + [pct([o.image_single[i] for o in outcomes])
                     for i in range(8)],
        "all": [pct([o.html_all for o in outcomes])]
               + [pct([o.image_all[i] for o in outcomes]) for i in range(8)],
        "broken_pct": pct([o.broken for o in outcomes]),
        "mean_resets": sum(o.resets for o in outcomes) / n,
    }


def sequence_accuracy(result: SessionResult) -> float:
    """Fraction of the 8 positions the adversary got right."""
    permutation = list(result.permutation)
    if result.report is None:
        return 0.0
    party_sequence = [label for label in result.report.predicted_labels
                      if label != "html"]
    correct = sum(1 for i, party in enumerate(permutation)
                  if i < len(party_sequence) and party_sequence[i] == party)
    return correct / len(permutation)
