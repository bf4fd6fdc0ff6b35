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

from repro.core.estimator import ObjectEstimate


class SizeIdentityMap:
    """size -> label lookup with tolerance."""

    def __init__(self, sizes_to_labels: Dict[int, str], tolerance: int = 400):
        if not sizes_to_labels:
            raise ValueError("empty size map")
        self._entries: List[Tuple[int, str]] = sorted(sizes_to_labels.items())
        self.tolerance = tolerance
        self._check_separation()

    def _check_separation(self) -> None:
        sizes = [size for size, _ in self._entries]
        for a, b in zip(sizes, sizes[1:]):
            if b - a <= 2 * self.tolerance:
                raise ValueError(
                    f"sizes {a} and {b} are closer than twice the tolerance;"
                    " matching would be ambiguous")

    def identify(self, size: int) -> Optional[str]:
        """The label whose size is within tolerance of ``size``, if any."""
        best_label, best_delta = None, self.tolerance + 1
        for true_size, label in self._entries:
            delta = abs(size - true_size)
            if delta < best_delta:
                best_label, best_delta = label, delta
        return best_label if best_delta <= self.tolerance else None

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
                      window_s: float = 2.5) -> List[Prediction]:
        """Find the densest time window of interesting objects.

        The paper's adversary knows (assumption 5) that its objects of
        interest -- the 8 emblem images -- are requested consecutively
        in one tight burst, so under the serializing attack their
        estimates land close together in time.  Isolated spurious
        matches elsewhere in the trace (recovery noise, duplicate
        serves) are excluded by choosing the ``window_s``-wide window
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
                if t - window_start > window_s:
                    break
                if label in seen:
                    continue
                seen.add(label)
                run.append(Prediction(label=label, estimate=est))
            if len(run) >= len(best):
                best = run
        return best

    def predict_after_anchor(self, estimates: Sequence[ObjectEstimate],
                             anchor_label: str,
                             ) -> List[Prediction]:
        """Identify objects appearing *after* the last ``anchor_label``
        sighting.

        The paper's adversary knows the request sequence (assumption 5):
        the 8 emblem images are requested only after the result HTML
        executes, so everything before the final HTML-sized estimate is
        recovery noise and must not claim an identity.  Falls back to
        the whole sequence when the anchor never appears.
        """
        anchor_at: Optional[int] = None
        for i, estimate in enumerate(estimates):
            if self.size_map.identify(estimate.size) == anchor_label:
                anchor_at = i
        if anchor_at is None:
            return self.predict(estimates)
        anchored = self.predict(estimates[anchor_at:])
        return anchored
