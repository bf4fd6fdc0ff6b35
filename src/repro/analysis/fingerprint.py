"""The fingerprinting dataset container.

A :class:`FingerprintDataset` is the interchange format between the
dataset *builders* (experiments-layer code that drives simulations --
see :mod:`repro.experiments.fingerprinting`) and the classifiers and
evaluators in this subpackage, which only ever see features and labels.  Keeping
the container here and the builders above the analysis layer is what
lets the analysis layer stay ignorant of sessions, sites and attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np


@dataclass
class FingerprintDataset:
    """Feature matrix, labels and provenance."""

    X: np.ndarray
    y: np.ndarray
    meta: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.y)
