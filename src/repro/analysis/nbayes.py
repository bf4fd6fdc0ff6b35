"""Gaussian naive Bayes classifier (numpy)."""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Fraction of the largest feature variance added to every variance.
VAR_SMOOTHING = 1e-9


class GaussianNBClassifier:
    """Per-class diagonal Gaussians with variance smoothing."""

    def __init__(self):
        self.classes_: Optional[np.ndarray] = None
        self._theta: Optional[np.ndarray] = None
        self._var: Optional[np.ndarray] = None
        self._prior: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNBClassifier":
        """Estimate class means, variances and priors."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        n_classes, n_features = len(self.classes_), X.shape[1]
        self._theta = np.zeros((n_classes, n_features))
        self._var = np.zeros((n_classes, n_features))
        self._prior = np.zeros(n_classes)
        epsilon = VAR_SMOOTHING * float(X.var(axis=0).max() or 1.0)
        for i, label in enumerate(self.classes_):
            rows = X[y == label]
            self._theta[i] = rows.mean(axis=0)
            self._var[i] = rows.var(axis=0) + epsilon
            self._prior[i] = len(rows) / len(X)
        return self

    def _log_likelihood(self, X: np.ndarray) -> np.ndarray:
        joint = []
        for i in range(len(self.classes_)):
            log_prior = np.log(self._prior[i])
            gauss = -0.5 * (np.log(2.0 * np.pi * self._var[i])
                            + (X - self._theta[i]) ** 2 / self._var[i])
            joint.append(log_prior + gauss.sum(axis=1))
        return np.array(joint).T

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Maximum a-posteriori label per row."""
        if self.classes_ is None:
            raise RuntimeError("fit() before predict()")
        X = np.asarray(X, dtype=float)
        return self.classes_[np.argmax(self._log_likelihood(X), axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on a labelled set."""
        return float(np.mean(self.predict(X) == np.asarray(y)))
