"""Stratified cross-validation utilities."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


#: Seed of the fold assignment: the same folds in every run.
FOLD_SEED = 0


def stratified_folds(y: np.ndarray, n_folds: int) -> List[np.ndarray]:
    """Index arrays for ``n_folds`` label-balanced folds."""
    y = np.asarray(y)
    rng = np.random.default_rng(FOLD_SEED)
    folds: List[List[int]] = [[] for _ in range(n_folds)]
    for label in np.unique(y):
        indices = np.nonzero(y == label)[0]
        rng.shuffle(indices)
        for i, index in enumerate(indices):
            folds[i % n_folds].append(int(index))
    return [np.array(sorted(f)) for f in folds]


def cross_validate(make_classifier: Callable, X: np.ndarray, y: np.ndarray,
                   n_folds: int = 5) -> Dict[str, Optional[float]]:
    """k-fold accuracy of ``make_classifier()`` instances.

    Returns mean/std/min accuracy over folds.  The fold count is capped
    at the largest class's size: with fewer samples than folds in every
    class, some fold would hold the whole dataset and leave its training
    set empty.  Below two folds there is nothing to hold out, so the
    accuracies are None and ``folds`` is 0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    counts = np.unique(y, return_counts=True)[1]
    n_folds = min(n_folds, int(counts.max(initial=0)))
    if n_folds < 2:
        return {"mean_accuracy": None, "std_accuracy": None,
                "min_accuracy": None, "folds": 0}
    folds = stratified_folds(y, n_folds)
    scores = []
    for i, test_index in enumerate(folds):
        if len(test_index) == 0:
            continue
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_index] = False
        classifier = make_classifier()
        classifier.fit(X[train_mask], y[train_mask])
        scores.append(classifier.score(X[test_index], y[test_index]))
    scores = np.array(scores)
    return {
        "mean_accuracy": float(scores.mean()),
        "std_accuracy": float(scores.std()),
        "min_accuracy": float(scores.min()),
        "folds": int(len(scores)),
    }


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray,
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """(labels, matrix) with rows=true, columns=predicted."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    labels = np.unique(np.concatenate([y_true, y_pred]))
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=int)
    for t, p in zip(y_true, y_pred):
        matrix[index[t], index[p]] += 1
    return labels, matrix
