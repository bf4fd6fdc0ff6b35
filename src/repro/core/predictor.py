"""Object identity prediction from size estimates.

The paper's adversary carries "a pre-compiled list of image size to
political party mapping which it leverages to complete the attack".
:class:`SizeIdentityMap` is that list; :class:`ObjectPredictor` turns an
ordered stream of size estimates into a predicted object sequence,
de-duplicating the repeated copies that retransmission-driven re-serves
produce (the adversary "cannot discern the retransmitted objects from
the actual ones", so it keeps the first sighting of each identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.estimator import SIZE_TOLERANCE, ObjectEstimate


#: Width of the time window :meth:`ObjectPredictor.predict_burst` slides
#: over the estimates.
BURST_WINDOW_S = 2.5


class SizeIdentityMap:
    """size -> label lookup with tolerance."""

    def __init__(self, sizes_to_labels: Dict[int, str]):
        if not sizes_to_labels:
            raise ValueError("empty size map")
        self._entries: List[Tuple[int, str]] = sorted(sizes_to_labels.items())
        self._check_separation()

    def _check_separation(self) -> None:
        sizes = [size for size, _ in self._entries]
        for a, b in zip(sizes, sizes[1:]):
            if b - a <= 2 * SIZE_TOLERANCE:
                raise ValueError(
                    f"sizes {a} and {b} are closer than twice the tolerance;"
                    " matching would be ambiguous")

    def identify(self, size: int) -> Optional[str]:
        """The label whose size is within tolerance of ``size``, if any."""
        best_label, best_delta = None, SIZE_TOLERANCE + 1
        for true_size, label in self._entries:
            delta = abs(size - true_size)
            if delta < best_delta:
                best_label, best_delta = label, delta
        return best_label if best_delta <= SIZE_TOLERANCE else None

    @property
    def labels(self) -> List[str]:
        return [label for _, label in self._entries]


@dataclass
class Prediction:
    """One identified object in the encrypted stream."""

    label: str
    estimate: ObjectEstimate


class ObjectPredictor:
    """Ordered identity recovery over size estimates."""

    def __init__(self, size_map: SizeIdentityMap):
        self.size_map = size_map

    def predict(self, estimates: Sequence[ObjectEstimate]) -> List[Prediction]:
        """Identify estimates in order; unknown sizes are skipped.

        Repeated sightings of the same identity keep only the first --
        duplicate copies from the retransmission storm land on the same
        size and would otherwise corrupt the sequence.
        """
        predictions: List[Prediction] = []
        seen: set = set()
        for estimate in estimates:
            label = self.size_map.identify(estimate.size)
            if label is None:
                continue
            if label in seen:
                continue
            seen.add(label)
            predictions.append(Prediction(label=label, estimate=estimate))
        return predictions

    def predict_burst(self, estimates: Sequence[ObjectEstimate],
                      labels_of_interest: Sequence[str],
                      ) -> List[Prediction]:
        """Find the densest time window of interesting objects.

        The paper's adversary knows (assumption 5) that its objects of
        interest -- the 8 emblem images -- are requested consecutively
        in one tight burst, so under the serializing attack their
        estimates land close together in time.  Isolated spurious
        matches elsewhere in the trace (recovery noise, duplicate
        serves) are excluded by choosing the :data:`BURST_WINDOW_S`-wide window
        containing the most *distinct* interesting labels; within the
        window, order is estimate order and repeats keep the first
        sighting.  Ties go to the later window.
        """
        interesting = set(labels_of_interest)
        hits = [(estimate.end_time, self.size_map.identify(estimate.size),
                 estimate) for estimate in estimates]
        hits = [(t, label, est) for t, label, est in hits
                if label in interesting]
        if not hits:
            return []

        best: List[Prediction] = []
        for i in range(len(hits)):
            window_start = hits[i][0]
            seen: set = set()
            run: List[Prediction] = []
            for t, label, est in hits[i:]:
                if t - window_start > BURST_WINDOW_S:
                    break
                if label in seen:
                    continue
                seen.add(label)
                run.append(Prediction(label=label, estimate=est))
            if len(run) >= len(best):
                best = run
        return best
