"""Decision trees and random forests (numpy, Gini impurity).

A compact CART implementation: binary splits on feature thresholds,
gini criterion, depth/size stopping rules; the forest adds bootstrap
sampling and per-split feature subsampling with majority voting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

#: Nodes with fewer samples than this become leaves.
MIN_SAMPLES_SPLIT = 2


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    prediction: Optional[object] = None

    @property
    def is_leaf(self) -> bool:
        return self.prediction is not None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float((p * p).sum())


class DecisionTreeClassifier:
    """CART classifier."""

    def __init__(self, max_depth: int = 12,
                 max_features: Optional[int] = None, seed: int = 0):
        self.max_depth = max_depth
        self.max_features = max_features
        self.seed = seed
        self._root: Optional[_Node] = None
        self.classes_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Grow the tree."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        rng = np.random.default_rng(self.seed)
        self._root = self._grow(X, encoded, depth=0, rng=rng)
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, rng) -> _Node:
        counts = np.bincount(y, minlength=len(self.classes_))
        majority = int(np.argmax(counts))
        if (depth >= self.max_depth or len(y) < MIN_SAMPLES_SPLIT
                or _gini(counts) == 0.0):
            return _Node(prediction=majority)

        n_features = X.shape[1]
        if self.max_features is not None and self.max_features < n_features:
            candidates = rng.choice(n_features, size=self.max_features,
                                    replace=False)
        else:
            candidates = np.arange(n_features)

        best = None  # (impurity, feature, threshold, mask)
        parent_impurity = _gini(counts)
        for feature in candidates:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            distinct = np.nonzero(np.diff(sorted_values))[0]
            if distinct.size == 0:
                continue
            # Candidate thresholds at midpoints between distinct values.
            for idx in distinct:
                threshold = (sorted_values[idx] + sorted_values[idx + 1]) / 2.0
                mask = values <= threshold
                left_counts = np.bincount(y[mask], minlength=len(self.classes_))
                right_counts = counts - left_counts
                n_left, n_right = left_counts.sum(), right_counts.sum()
                impurity = (n_left * _gini(left_counts)
                            + n_right * _gini(right_counts)) / len(y)
                if best is None or impurity < best[0]:
                    best = (impurity, feature, threshold, mask)

        if best is None or best[0] >= parent_impurity:
            return _Node(prediction=majority)
        _, feature, threshold, mask = best
        if mask.all() or not mask.any():
            return _Node(prediction=majority)
        left = self._grow(X[mask], y[mask], depth + 1, rng)
        right = self._grow(X[~mask], y[~mask], depth + 1, rng)
        return _Node(feature=int(feature), threshold=float(threshold),
                     left=left, right=right)

    def _predict_row(self, row: np.ndarray) -> int:
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.prediction

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted label per row."""
        if self._root is None:
            raise RuntimeError("fit() before predict()")
        X = np.asarray(X, dtype=float)
        encoded = np.array([self._predict_row(row) for row in X])
        return self.classes_[encoded]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on a labelled set."""
        return float(np.mean(self.predict(X) == np.asarray(y)))


#: Seed of the forest's bootstrap and feature draws.
FOREST_SEED = 0


class RandomForestClassifier:
    """Bagged CART trees; each split considers ``sqrt(n_features)``
    random features."""

    def __init__(self, n_trees: int = 25, max_depth: int = 12):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self._trees: List[DecisionTreeClassifier] = []
        self.classes_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit ``n_trees`` trees on bootstrap samples."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        rng = np.random.default_rng(FOREST_SEED)
        per_split = max(1, int(np.sqrt(X.shape[1])))
        self._trees = []
        for i in range(self.n_trees):
            rows = rng.integers(0, len(X), size=len(X))
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                max_features=per_split,
                seed=FOREST_SEED * 1000 + i,
            )
            tree.fit(X[rows], y[rows])
            self._trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority vote across trees."""
        if not self._trees:
            raise RuntimeError("fit() before predict()")
        votes = np.stack([tree.predict(X) for tree in self._trees])
        predictions = []
        for column in votes.T:
            labels, counts = np.unique(column, return_counts=True)
            predictions.append(labels[np.argmax(counts)])
        return np.array(predictions)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on a labelled set."""
        return float(np.mean(self.predict(X) == np.asarray(y)))
