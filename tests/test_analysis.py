"""Classifier, cross-validation and feature tests."""

import numpy as np
import pytest

from repro.analysis import forest
from repro.analysis.crossval import cross_validate, stratified_folds
from repro.analysis.forest import DecisionTreeClassifier, RandomForestClassifier
from repro.analysis.knn import KNeighborsClassifier
from repro.analysis.nbayes import GaussianNBClassifier


def blobs(n_per_class=30, n_classes=3, n_features=4, spread=0.5, seed=0):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c in range(n_classes):
        center = np.zeros(n_features)
        center[c % n_features] = 5.0
        X.append(center + spread * rng.standard_normal((n_per_class,
                                                        n_features)))
        y.extend([f"class-{c}"] * n_per_class)
    return np.vstack(X), np.array(y)


CLASSIFIERS = [
    lambda: KNeighborsClassifier(k=3),
    lambda: GaussianNBClassifier(),
    lambda: DecisionTreeClassifier(max_depth=6),
    lambda: RandomForestClassifier(n_trees=10, max_depth=6),
]


@pytest.mark.parametrize("factory", CLASSIFIERS)
def test_classifier_separates_blobs(factory):
    X, y = blobs()
    clf = factory().fit(X, y)
    assert clf.score(X, y) > 0.95


@pytest.mark.parametrize("factory", CLASSIFIERS)
def test_classifier_generalizes(factory):
    X_train, y_train = blobs(seed=1)
    X_test, y_test = blobs(seed=2)
    clf = factory().fit(X_train, y_train)
    assert clf.score(X_test, y_test) > 0.9


@pytest.mark.parametrize("factory", CLASSIFIERS)
def test_predict_before_fit_raises(factory):
    with pytest.raises(RuntimeError):
        factory().predict(np.zeros((1, 4)))


def test_knn_handles_constant_features():
    X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0], [4.0, 7.0]])
    y = np.array(["a", "a", "b", "b"])
    clf = KNeighborsClassifier(k=1).fit(X, y)
    assert list(clf.predict(np.array([[1.1, 7.0], [3.9, 7.0]]))) == ["a", "b"]


def test_knn_k_validation():
    with pytest.raises(ValueError):
        KNeighborsClassifier(k=0)


def test_tree_pure_leaf_short_circuit():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array(["a", "a", "a"])
    clf = DecisionTreeClassifier().fit(X, y)
    assert list(clf.predict(X)) == ["a", "a", "a"]


def test_tree_depth_limit_respected():
    X, y = blobs(spread=3.0)
    stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
    deep = DecisionTreeClassifier(max_depth=10).fit(X, y)
    assert deep.score(X, y) >= stump.score(X, y)


def test_forest_is_deterministic_given_seed(monkeypatch):
    monkeypatch.setattr(forest, "FOREST_SEED", 3)
    X, y = blobs()
    a = RandomForestClassifier(n_trees=5).fit(X, y).predict(X)
    b = RandomForestClassifier(n_trees=5).fit(X, y).predict(X)
    assert (a == b).all()


def test_stratified_folds_balanced():
    y = np.array(["a"] * 10 + ["b"] * 10)
    folds = stratified_folds(y, n_folds=5)
    assert len(folds) == 5
    for fold in folds:
        labels = y[fold]
        assert (labels == "a").sum() == 2
        assert (labels == "b").sum() == 2
    all_indices = np.concatenate(folds)
    assert sorted(all_indices) == list(range(20))


def test_cross_validate_reports_stats():
    X, y = blobs()
    stats = cross_validate(lambda: GaussianNBClassifier(), X, y, n_folds=3)
    assert stats["folds"] == 3
    assert 0.8 <= stats["mean_accuracy"] <= 1.0
    assert stats["min_accuracy"] <= stats["mean_accuracy"]


def test_cross_validate_caps_folds_at_the_largest_class():
    # Class counts [1, 3]: four requested folds become three, and every
    # fold keeps a non-empty training set.
    X = np.array([[0.0], [1.0], [1.1], [0.9]])
    y = np.array(["a", "b", "b", "b"])
    stats = cross_validate(lambda: KNeighborsClassifier(k=1), X, y,
                           n_folds=4)
    assert stats["folds"] == 3
    assert 0.0 <= stats["min_accuracy"] <= stats["mean_accuracy"] <= 1.0


def test_cross_validate_reports_no_accuracy_below_two_folds():
    # One sample per class: any held-out fold would empty the training set.
    X = np.array([[0.0], [1.0]])
    y = np.array(["a", "b"])
    stats = cross_validate(lambda: KNeighborsClassifier(k=1), X, y,
                           n_folds=4)
    assert stats == {"mean_accuracy": None, "std_accuracy": None,
                     "min_accuracy": None, "folds": 0}


def test_feature_extractor_fixed_length():
    from repro.analysis.features import TraceFeatureExtractor
    from repro.experiments.session import SessionConfig, run_session
    extractor = TraceFeatureExtractor()
    result = run_session(SessionConfig(seed=0))
    vector = extractor.extract(result.trace)
    assert vector.shape == (extractor.n_features,)
    assert vector[0] > 0  # total bytes


def test_feature_extractor_empty_trace():
    from repro.analysis.features import TraceFeatureExtractor
    from repro.simnet.trace import TraceRecorder
    extractor = TraceFeatureExtractor()
    vector = extractor.extract(TraceRecorder())
    assert vector.shape == (extractor.n_features,)
    assert not vector.any()


def test_known_size_rank_feature():
    from repro.analysis.features import known_size_rank_feature
    from repro.simnet.trace import TraceRecorder
    ranks = known_size_rank_feature(TraceRecorder(), [100, 200])
    assert list(ranks) == [0.0, 0.0]
