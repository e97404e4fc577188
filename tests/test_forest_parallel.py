"""Parallel forest training and the batched-inference fast paths.

The contract: ``n_jobs`` moves work, never randomness.  A forest fitted
with any worker count is bit-identical to the serial fit — same trees,
same importances, same probabilities — because every tree draws from its
own spawned generator stream keyed only by (seed, tree index).
"""

import time

import numpy as np
import pytest

from repro.core.database import PredictionEntry, PredictionLog
from repro.ml import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, _LEAF

from .test_core_database import rows_of


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 8))
    y = (X[:, 0] + 0.5 * X[:, 3] > 0).astype(int)
    return X, y


def assert_forests_identical(a, b, X):
    assert len(a.estimators_) == len(b.estimators_)
    for ta, tb in zip(a.estimators_, b.estimators_):
        assert np.array_equal(ta.feature_, tb.feature_)
        assert np.array_equal(ta.threshold_, tb.threshold_)
        assert np.array_equal(ta.children_left_, tb.children_left_)
        assert np.array_equal(ta.children_right_, tb.children_right_)
        assert np.array_equal(ta.value_, tb.value_)
    assert np.array_equal(a.feature_importances_, b.feature_importances_)
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
    assert np.array_equal(a.predict(X), b.predict(X))


class TestParallelTraining:
    @pytest.mark.parametrize("jobs", [2, 4, -1])
    def test_n_jobs_is_bit_identical(self, data, jobs):
        X, y = data
        serial = RandomForestClassifier(
            n_estimators=7, max_depth=6, seed=0).fit(X, y)
        parallel = RandomForestClassifier(
            n_estimators=7, max_depth=6, seed=0, n_jobs=jobs).fit(X, y)
        assert_forests_identical(serial, parallel, X)

    def test_more_jobs_than_trees(self, data):
        X, y = data
        serial = RandomForestClassifier(n_estimators=2, seed=3).fit(X, y)
        wide = RandomForestClassifier(n_estimators=2, seed=3, n_jobs=8).fit(X, y)
        assert_forests_identical(serial, wide, X)

    def test_refit_is_deterministic(self, data):
        X, y = data
        clf = RandomForestClassifier(n_estimators=4, seed=1, n_jobs=2)
        first = clf.fit(X, y).predict_proba(X)
        second = clf.fit(X, y).predict_proba(X)
        assert np.array_equal(first, second)

    def test_n_jobs_zero_rejected(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_jobs=0)


class TestBootstrapRedraw:
    def test_class_incomplete_bootstrap_raises(self, data):
        X, _ = data
        # 39:1 imbalance with 2-sample bootstraps: a class-complete draw
        # is nearly impossible, so the 8 redraws exhaust and fail loudly.
        y = np.array([0] * 39 + [1])
        with pytest.raises(ValueError, match="missed a class"):
            RandomForestClassifier(
                n_estimators=3, max_samples=2, seed=0).fit(X[:40], y)

    def test_raises_from_worker_too(self, data):
        X, _ = data
        y = np.array([0] * 39 + [1])
        with pytest.raises(ValueError, match="missed a class"):
            RandomForestClassifier(
                n_estimators=4, max_samples=2, seed=0, n_jobs=2).fit(X[:40], y)


class TestTreeFastPaths:
    def test_depth_matches_per_node_reference(self, data):
        X, y = data
        for seed in range(4):
            tree = DecisionTreeClassifier(max_depth=5, seed=seed).fit(X, y)
            depths = np.zeros(tree.node_count, dtype=np.int64)
            expect = 0
            for nid in range(tree.node_count):
                if tree.feature_[nid] != _LEAF:
                    depths[tree.children_left_[nid]] = depths[nid] + 1
                    depths[tree.children_right_[nid]] = depths[nid] + 1
                else:
                    expect = max(expect, int(depths[nid]))
            assert tree.depth == expect

    def test_depth_of_stump_is_zero(self, data):
        X, y = data
        tree = DecisionTreeClassifier(min_samples_split=10**6, seed=0).fit(X, y)
        assert tree.node_count == 1
        assert tree.depth == 0

    def test_apply_equals_validated_apply(self, data):
        X, y = data
        tree = DecisionTreeClassifier(max_depth=4, seed=0).fit(X, y)
        Xq = np.ascontiguousarray(X[:50], dtype=np.float64)
        assert np.array_equal(tree.apply(Xq), tree._apply(Xq))

    def test_forest_proba_matches_column_scatter(self, data):
        X, y = data
        clf = RandomForestClassifier(n_estimators=6, max_depth=5, seed=2).fit(X, y)
        ref = np.zeros((X.shape[0], clf.classes_.size))
        for tree in clf.estimators_:
            ref[:, tree.classes_.astype(np.int64)] += tree.predict_proba(X)
        ref /= len(clf.estimators_)
        assert np.array_equal(clf.predict_proba(X), ref)


class _NoCacheTree(DecisionTreeClassifier):
    """Reference tree: split search without the fit-time sort caches
    (re-argsorts every candidate feature at every node, the pre-presort
    behaviour)."""

    def _best_split(self, X, y_onehot, idx, features, presort=None, ranks=None):
        return super()._best_split(X, y_onehot, idx, features, None, None)


class TestPresortSplitSearch:
    def test_presorted_fit_is_bit_identical(self, data):
        """The sort caches change where permutations come from, never
        what they are: same splits, same thresholds, same leaves."""
        X, y = data
        for seed in range(4):
            cached = DecisionTreeClassifier(
                max_depth=6, max_features="sqrt", seed=seed).fit(X, y)
            plain = _NoCacheTree(
                max_depth=6, max_features="sqrt", seed=seed).fit(X, y)
            assert np.array_equal(cached.feature_, plain.feature_)
            assert np.array_equal(cached.threshold_, plain.threshold_)
            assert np.array_equal(cached.children_left_, plain.children_left_)
            assert np.array_equal(cached.children_right_, plain.children_right_)
            assert np.array_equal(cached.value_, plain.value_)
            assert np.array_equal(
                cached.feature_importances_, plain.feature_importances_
            )

    def test_fit_time_delta_recorded(self):
        """Timing-tolerant presort check: the cached split search must
        not regress fit time.  The delta is printed for the record; the
        assertion only guards against a blow-up (shared CI boxes make a
        strict speedup assertion flaky)."""
        rng = np.random.default_rng(42)
        X = rng.normal(size=(4000, 10))
        y = (X[:, 0] + 0.3 * X[:, 2] - 0.5 * X[:, 7] > 0).astype(int)

        def fit_time(cls):
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                cls(max_depth=8, seed=0).fit(X, y)
                best = min(best, time.perf_counter() - t0)
            return best

        t_plain = fit_time(_NoCacheTree)
        t_cached = fit_time(DecisionTreeClassifier)
        print(
            f"\ntree fit 4000x10 depth-8: re-argsort {t_plain * 1e3:.1f} ms, "
            f"presorted {t_cached * 1e3:.1f} ms "
            f"({t_plain / t_cached:.2f}x)"
        )
        assert t_cached <= t_plain * 1.5 + 0.05


class TestPredictionEntryFast:
    def test_fast_still_frozen(self):
        """The log's row view stays frozen."""
        row = PredictionEntry((1, 2, 3, 4, 6), 0, 0, 1, 0, (0,), None)
        entry = PredictionLog(rows_of([row]))[0]
        assert entry == row
        with pytest.raises(Exception):
            entry.label = 1
