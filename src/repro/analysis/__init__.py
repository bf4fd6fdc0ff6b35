"""Encrypted-traffic analysis: features and classifiers.

The paper's future-work section suggests machine learning for the cases
its deterministic pipeline cannot untangle; this subpackage provides the
standard website-fingerprinting toolchain, implemented from scratch on
numpy:

* :mod:`repro.analysis.features` -- packet/record-trace feature vectors,
* :mod:`repro.analysis.knn` -- k-nearest-neighbours,
* :mod:`repro.analysis.nbayes` -- Gaussian naive Bayes,
* :mod:`repro.analysis.forest` -- decision trees and random forests,
* :mod:`repro.analysis.crossval` -- stratified k-fold evaluation,
* :mod:`repro.analysis.fingerprint` -- the dataset container shared
  with the cells in :mod:`repro.experiments.fingerprinting` (which
  drive simulations and therefore live above this layer).
"""

from repro.analysis.crossval import cross_validate
from repro.analysis.features import TraceFeatureExtractor
from repro.analysis.fingerprint import FingerprintDataset
from repro.analysis.forest import DecisionTreeClassifier, RandomForestClassifier
from repro.analysis.knn import KNeighborsClassifier
from repro.analysis.nbayes import GaussianNBClassifier

__all__ = [
    "DecisionTreeClassifier",
    "FingerprintDataset",
    "GaussianNBClassifier",
    "KNeighborsClassifier",
    "RandomForestClassifier",
    "TraceFeatureExtractor",
    "cross_validate",
]
