"""Tests for permutation importance and ensemble voting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml import (
    GaussianNB,
    KNeighborsClassifier,
    RandomForestClassifier,
    VotingClassifier,
    majority_vote,
    permutation_importance,
    top_k_features,
)


class TestPermutationImportance:
    def test_informative_feature_ranks_first(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(600, 4))
        y = (X[:, 1] > 0).astype(int)
        model = GaussianNB().fit(X, y)
        imp = permutation_importance(model, X, y, n_repeats=3, seed=0)
        assert np.argmax(imp) == 1
        assert imp[1] > 0.2

    def test_irrelevant_features_near_zero(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(600, 4))
        y = (X[:, 0] > 0).astype(int)
        model = GaussianNB().fit(X, y)
        imp = permutation_importance(model, X, y, n_repeats=5, seed=0)
        assert np.abs(imp[1:]).max() < 0.05

    def test_does_not_mutate_input(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(int)
        X_orig = X.copy()
        permutation_importance(GaussianNB().fit(X, y), X, y, n_repeats=2, seed=0)
        assert np.array_equal(X, X_orig)

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            permutation_importance(None, np.zeros((2, 2)), [0, 1], n_repeats=0)

    def test_top_k(self):
        imp = np.array([0.1, 0.5, 0.3])
        top = top_k_features(imp, ["a", "b", "c"], k=2)
        assert [name for name, _ in top] == ["b", "c"]

    def test_top_k_length_mismatch(self):
        with pytest.raises(ValueError):
            top_k_features(np.array([0.1]), ["a", "b"])


class TestMajorityVote:
    def test_two_of_three(self):
        preds = np.array([[1, 1, 0], [0, 0, 1], [1, 1, 1], [0, 0, 0]])
        assert majority_vote(preds).tolist() == [1, 0, 1, 0]

    def test_single_update_row(self):
        """One update's MLP/RF/GNB votes as a one-row block."""
        assert majority_vote(np.array([[1, 1, 0]])).tolist() == [1]
        assert majority_vote(np.array([[1, 0, 0]])).tolist() == [0]
        assert majority_vote(np.array([[1, 1, 1]])).tolist() == [1]
        assert majority_vote(np.array([[0, 0, 0]])).tolist() == [0]

    def test_tie_breaks_to_attack(self):
        preds = np.array([[1, 0], [0, 1]])
        assert majority_vote(preds).tolist() == [1, 1]

    def test_single_model_passthrough(self):
        preds = np.array([[1], [0], [1]])
        assert majority_vote(preds).tolist() == [1, 0, 1]

    @given(
        hnp.arrays(
            np.int64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=30),
            elements=st.integers(0, 1),
        )
    )
    @settings(max_examples=80)
    def test_vote_bounds_and_unanimity(self, preds):
        out = majority_vote(preds)
        assert set(np.unique(out)) <= {0, 1}
        unanimous_1 = preds.all(axis=1)
        unanimous_0 = (preds == 0).all(axis=1)
        assert (out[unanimous_1] == 1).all()
        assert (out[unanimous_0] == 0).all()


class TestVotingClassifier:
    def test_2of3_panel(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (200, 3)), rng.normal(3, 1, (200, 3))])
        y = np.array([0] * 200 + [1] * 200)
        panel = VotingClassifier(
            [
                RandomForestClassifier(n_estimators=5, seed=0).fit(X, y),
                GaussianNB().fit(X, y),
                KNeighborsClassifier(3).fit(X, y),
            ]
        )
        preds = panel.predict(X)
        assert (preds == y).mean() > 0.97
        each = panel.predict_each(X)
        assert each.shape == (400, 3)
        assert np.array_equal(majority_vote(each), preds)

    def test_empty_panel_rejected(self):
        with pytest.raises(ValueError):
            VotingClassifier([])
