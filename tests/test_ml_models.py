"""Tests for the four classifiers (tree/forest, GNB, KNN, MLP)."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    GaussianNB,
    KNeighborsClassifier,
    MLPClassifier,
    RandomForestClassifier,
)


def blobs(n=400, d=4, gap=2.0, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, size=(n, d))
    X1 = rng.normal(gap, 1.0, size=(n, d))
    X = np.vstack([X0, X1])
    y = np.array([0] * n + [1] * n)
    perm = rng.permutation(2 * n)
    return X[perm], y[perm]


ALL_MODELS = [
    ("gnb", lambda: GaussianNB()),
    ("knn", lambda: KNeighborsClassifier(5)),
    ("tree", lambda: DecisionTreeClassifier(max_depth=8, seed=0)),
    ("forest", lambda: RandomForestClassifier(n_estimators=10, max_depth=8, seed=0)),
    ("mlp", lambda: MLPClassifier((16, 8), max_epochs=25, seed=0)),
]


@pytest.mark.parametrize("name,factory", ALL_MODELS)
class TestCommonBehaviour:
    def test_separable_blobs(self, name, factory):
        X, y = blobs(gap=3.0)
        model = factory().fit(X, y)
        assert model.score(X, y) > 0.97

    def test_proba_rows_sum_to_one(self, name, factory):
        X, y = blobs()
        proba = factory().fit(X, y).predict_proba(X[:50])
        assert proba.shape == (50, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    def test_predict_matches_argmax_proba(self, name, factory):
        X, y = blobs()
        m = factory().fit(X, y)
        proba = m.predict_proba(X[:100])
        assert np.array_equal(m.predict(X[:100]), np.argmax(proba, axis=1))

    def test_unfitted_raises(self, name, factory):
        with pytest.raises(RuntimeError):
            factory().predict(np.zeros((2, 4)))

    def test_feature_count_mismatch(self, name, factory):
        X, y = blobs(d=4)
        m = factory().fit(X, y)
        with pytest.raises(ValueError):
            m.predict(np.zeros((3, 5)))

    def test_nonstandard_labels(self, name, factory):
        X, y = blobs(gap=3.0)
        m = factory().fit(X, np.where(y == 1, 7, -3))
        preds = m.predict(X)
        assert set(np.unique(preds)) <= {-3, 7}

    def test_single_class_rejected(self, name, factory):
        X, _ = blobs(n=20)
        with pytest.raises(ValueError):
            factory().fit(X, np.zeros(X.shape[0]))

    def test_nan_rejected(self, name, factory):
        X, y = blobs(n=20)
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            factory().fit(X, y)


_ONE = np.nextafter(1.0, 2.0)
#: Feature columns (labels 0, 1, 0, 1) whose split midpoint is not
#: strictly between its neighbours: ``a + b`` overflows to +inf, or
#: ``0.5 * (a + b)`` rounds up to ``b`` for adjacent floats.
_UNSPLITTABLE_MIDPOINTS = [
    [1.6e308, 1.7e308, 1.75e308, 1.79e308],
    [_ONE, np.nextafter(_ONE, 2.0)] * 2,
]


class TestDecisionTree:
    def test_pure_leaf_on_clean_split(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        t = DecisionTreeClassifier().fit(X, y)
        assert t.score(X, y) == 1.0
        assert t.node_count == 3  # one split, two leaves
        assert t.depth == 1

    def test_max_depth_respected(self):
        X, y = blobs(n=300, gap=0.5)
        t = DecisionTreeClassifier(max_depth=3, seed=0).fit(X, y)
        assert t.depth <= 3

    def test_min_samples_leaf(self):
        X, y = blobs(n=100)
        t = DecisionTreeClassifier(min_samples_leaf=20, seed=0).fit(X, y)
        leaf_mask = t.feature_ == -1
        assert (t.n_node_samples_[leaf_mask] >= 20).all()

    def test_importance_concentrates_on_informative_feature(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(800, 5))
        y = (X[:, 2] > 0).astype(int)
        t = DecisionTreeClassifier(max_depth=6, seed=0).fit(X, y)
        assert np.argmax(t.feature_importances_) == 2
        assert t.feature_importances_.sum() == pytest.approx(1.0)

    def test_constant_features_yield_stump(self):
        X = np.ones((30, 3))
        y = np.array([0, 1] * 15)
        t = DecisionTreeClassifier().fit(X, y)
        assert t.node_count == 1  # no valid split exists

    @pytest.mark.parametrize("column", _UNSPLITTABLE_MIDPOINTS)
    def test_threshold_separates_adjacent_values(self, column):
        X = np.array(column)[:, None]
        split = DecisionTreeClassifier()._best_split(
            X, np.eye(2)[[0, 1, 0, 1]], np.arange(4), [0]
        )
        thr, left = split[1], split[3]
        assert np.isfinite(thr)
        assert left.any() and not left.all()

    @pytest.mark.parametrize("column", _UNSPLITTABLE_MIDPOINTS)
    def test_fit_returns_on_adjacent_values(self, column):
        X = np.array(column)[:, None]
        y = np.array([0, 1, 0, 1])
        t = DecisionTreeClassifier().fit(X, y)
        assert np.isfinite(t.threshold_).all()
        assert t.score(X, y) == 1.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)


class TestRandomForest:
    def test_beats_single_tree_on_noise(self):
        rng = np.random.default_rng(3)
        n = 1500
        X = rng.normal(size=(n, 10))
        y = ((X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(0, 0.8, n)) > 0).astype(int)
        Xte = rng.normal(size=(600, 10))
        yte = ((Xte[:, 0] + Xte[:, 1] * Xte[:, 2]) > 0).astype(int)
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        forest = RandomForestClassifier(n_estimators=25, seed=0).fit(X, y)
        assert forest.score(Xte, yte) >= tree.score(Xte, yte) - 0.01

    def test_importances_normalized(self):
        X, y = blobs()
        rf = RandomForestClassifier(n_estimators=5, seed=0).fit(X, y)
        assert rf.feature_importances_.sum() == pytest.approx(1.0)
        assert (rf.feature_importances_ >= 0).all()

    def test_max_samples_fraction_and_int(self):
        X, y = blobs(n=200)
        RandomForestClassifier(n_estimators=3, max_samples=0.5, seed=0).fit(X, y)
        RandomForestClassifier(n_estimators=3, max_samples=50, seed=0).fit(X, y)

    def test_deterministic_with_seed(self):
        X, y = blobs()
        a = RandomForestClassifier(n_estimators=5, seed=9).fit(X, y).predict(X)
        b = RandomForestClassifier(n_estimators=5, seed=9).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)
        X, y = blobs(n=20)
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=2, max_samples=1.5).fit(X, y)


class TestGaussianNB:
    def test_recovers_generating_means(self):
        X, y = blobs(n=3000, gap=2.0, seed=5)
        g = GaussianNB().fit(X, y)
        assert np.allclose(g.theta_[0], 0.0, atol=0.1)
        assert np.allclose(g.theta_[1], 2.0, atol=0.1)

    def test_priors_match_class_balance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 2))
        y = np.array([0] * 80 + [1] * 20)
        g = GaussianNB().fit(X, y)
        assert g.class_prior_.tolist() == [0.8, 0.2]

    def test_constant_feature_does_not_crash(self):
        X = np.column_stack([np.ones(40), np.r_[np.zeros(20), np.ones(20)]])
        y = np.array([0] * 20 + [1] * 20)
        g = GaussianNB().fit(X, y)
        assert g.score(X, y) == 1.0


class TestKNN:
    def test_memorizes_training_points_k1(self):
        X, y = blobs(n=100)
        k = KNeighborsClassifier(1).fit(X, y)
        assert k.score(X, y) == 1.0

    def test_n_neighbors_gt_samples_rejected(self):
        X, y = blobs(n=2)
        with pytest.raises(ValueError):
            KNeighborsClassifier(100).fit(X, y)

    def test_distance_weighting(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1], [10.2]])
        y = np.array([0, 0, 1, 1, 1])
        k = KNeighborsClassifier(5, weights="distance").fit(X, y)
        # query near class 0: uniform voting would say 1 (3 of 5),
        # distance weighting must say 0
        assert k.predict(np.array([[0.05]]))[0] == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(0)
        with pytest.raises(ValueError):
            KNeighborsClassifier(5, weights="bogus")


class TestMLP:
    def test_learns_xor(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(1200, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        m = MLPClassifier((16, 8), max_epochs=80, seed=0).fit(X, y)
        assert m.score(X, y) > 0.95

    def test_loss_decreases(self):
        X, y = blobs()
        m = MLPClassifier((8,), max_epochs=30, seed=0).fit(X, y)
        assert m.loss_curve_[-1] < m.loss_curve_[0]

    def test_paper_architectures_accepted(self):
        X, y = blobs(n=100)
        MLPClassifier((32, 16, 8), max_epochs=2, seed=0).fit(X, y)
        MLPClassifier((64, 32, 16), max_epochs=2, seed=0).fit(X, y)

    def test_multiclass(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(c * 3, 0.5, size=(150, 3)) for c in range(3)])
        y = np.repeat([0, 1, 2], 150)
        m = MLPClassifier((16,), max_epochs=40, seed=0).fit(X, y)
        assert m.score(X, y) > 0.95
        assert m.predict_proba(X[:5]).shape == (5, 3)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MLPClassifier(())
        with pytest.raises(ValueError):
            MLPClassifier((8,), learning_rate=0)
