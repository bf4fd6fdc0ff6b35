"""Feature extraction from encrypted captures.

Features follow the website-fingerprinting literature the paper cites:
aggregate volume, record-size distribution, burst structure, and the
recovered object-size estimates -- all derivable from cleartext headers
and sizes only.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.estimator import SIZE_TOLERANCE, SizeEstimator
from repro.simnet.middlebox import SERVER_TO_CLIENT
from repro.simnet.trace import TraceRecorder

#: Record-size histogram bucket edges (wire bytes).
SIZE_BUCKETS = (64, 128, 256, 512, 1024, 1200, 1300, 1390, 1401, 2000)

#: Number of leading object-size estimates included in the vector.
TOP_OBJECTS = 12


class TraceFeatureExtractor:
    """Turns a capture into a fixed-length numeric feature vector."""

    def __init__(self):
        self.estimator = SizeEstimator()

    @property
    def n_features(self) -> int:
        return 8 + len(SIZE_BUCKETS) + 1 + TOP_OBJECTS

    def extract(self, trace: TraceRecorder) -> np.ndarray:
        """Feature vector for one capture."""
        records = trace.completed_records(SERVER_TO_CLIENT)
        sizes = np.array([r.wire_len for r in records], dtype=float)
        times = np.array([r.end_time for r in records], dtype=float)

        features: List[float] = []
        if sizes.size == 0:
            return np.zeros(self.n_features)

        # Aggregate volume and shape.
        features.append(float(sizes.sum()))
        features.append(float(sizes.size))
        features.append(float(sizes.mean()))
        features.append(float(sizes.std()))
        features.append(float(np.median(sizes)))
        features.append(float(times[-1] - times[0]) if times.size > 1 else 0.0)
        gaps = np.diff(times) if times.size > 1 else np.zeros(1)
        features.append(float(gaps.mean()))
        features.append(float(gaps.max()) if gaps.size else 0.0)

        # Record-size histogram.
        histogram, _ = np.histogram(sizes, bins=(0,) + SIZE_BUCKETS)
        features.extend(histogram.astype(float).tolist())
        features.append(float((sizes >= SIZE_BUCKETS[-1]).sum()))

        # Recovered object-size estimates (the Fig. 1 side-channel).
        estimates = self.estimator.estimate_from_records(records)
        top = sorted((e.size for e in estimates), reverse=True)[:TOP_OBJECTS]
        top += [0] * (TOP_OBJECTS - len(top))
        features.extend(float(s) for s in top)

        return np.array(features, dtype=float)


def known_size_rank_feature(trace: TraceRecorder, known_sizes,
                            since: float = 0.0) -> np.ndarray:
    """Rank features anchored on the adversary's size map.

    For each known object size, the feature is the (1-based) order in
    which an estimate matching that size first appears among all
    matches, or 0 when it never shows up cleanly.  This encodes exactly
    the adversary's prior (the pre-compiled size -> identity map of
    Section V) and lets generic classifiers read the *order* signal the
    serialization attack exposes.
    """
    estimates = SizeEstimator().estimate_from_trace(trace, since=since)
    known = list(known_sizes)
    first_match = {size: None for size in known}
    rank = 0
    for estimate in estimates:
        for size in known:
            if (first_match[size] is None
                    and abs(estimate.size - size) <= SIZE_TOLERANCE):
                rank += 1
                first_match[size] = rank
                break
    return np.array([float(first_match[size] or 0) for size in known])
