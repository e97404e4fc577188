"""The compiled forest: one node table, one descent for all trees x rows.

``RandomForestClassifier`` predicts by walking a single concatenated
node table instead of descending each tree in turn.  The contract is
bit-identity: ``predict_proba`` equals, byte for byte, the per-tree loop
it replaced, which is kept below verbatim as the oracle.  A packed panel
must also stay a pure function of the fitted trees, whatever the forest
has served.
"""

import inspect
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import pack_panel, panel_content_hash, unpack_panel
from repro.ml import RandomForestClassifier, StandardScaler
from repro.ml import forest as forest_module
from repro.ml.forest import _BLOCK_ROWS
from repro.ml.tree import _LEAF, DecisionTreeClassifier


def reference_proba(forest, X):
    """The per-tree loop: each tree's leaf values padded to the forest's
    class columns, one descent and one row gather per tree, accumulated
    in tree order."""
    k = forest.classes_.size
    values = []
    for tree in forest.estimators_:
        cols = tree.classes_.astype(np.int64)
        if cols.size == k:
            values.append(tree.value_)
        else:
            padded = np.zeros((tree.value_.shape[0], k))
            padded[:, cols] = tree.value_
            values.append(padded)
    acc = np.zeros((X.shape[0], k))
    buf = np.empty((X.shape[0], k))
    for tree, v in zip(forest.estimators_, values):
        np.take(v, tree._apply(X), axis=0, out=buf)
        acc += buf
    acc /= len(forest.estimators_)
    return acc


def assert_matches_reference(forest, X):
    X = np.ascontiguousarray(X, dtype=np.float64)
    got = forest.predict_proba(X)
    assert got.shape == (X.shape[0], forest.classes_.size)
    assert got.tobytes() == reference_proba(forest, X).tobytes()


def on_threshold_rows(forest, n_features):
    """One row per internal node, sitting exactly on that node's split."""
    rows = []
    for tree in forest.estimators_:
        for f, thr in zip(tree.feature_, tree.threshold_):
            if f != _LEAF:
                row = np.zeros(n_features)
                row[f] = thr
                rows.append(row)
    return np.array(rows).reshape(-1, n_features)


def balanced_data(rng, n, n_features, k):
    # Integer-valued features: many ties, and every split threshold is
    # a half-integer or integer the query grid below can hit exactly.
    X = rng.integers(0, 7, size=(n, n_features)).astype(np.float64)
    y = rng.permutation(np.arange(n) % k)
    return X, y


@st.composite
def fitted_forests(draw):
    seed = draw(st.integers(0, 2**16))
    k = draw(st.sampled_from([2, 3]))
    n_features = draw(st.integers(1, 5))
    rng = np.random.default_rng(seed)
    X, y = balanced_data(rng, draw(st.integers(12, 120)), n_features, k)
    forest = RandomForestClassifier(
        n_estimators=draw(st.integers(1, 6)),
        max_depth=draw(st.one_of(st.none(), st.integers(1, 6))),
        max_features=draw(st.sampled_from(["sqrt", None])),
        min_samples_split=draw(st.sampled_from([2, 2, 5, 10**6])),
        seed=seed,
    ).fit(X, y)
    return forest, rng


class TestEquivalence:
    @given(fitted_forests(), st.integers(0, 40))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_forests(self, fitted, n_query):
        forest, rng = fitted
        n_features = forest.n_features_
        grid = rng.integers(0, 15, size=(n_query, n_features)) / 2.0
        X = np.vstack([grid, on_threshold_rows(forest, n_features)])
        assert_matches_reference(forest, X)
        assert_matches_reference(forest, X[:1])
        assert_matches_reference(forest, X[:0])

    def test_all_stumps(self):
        rng = np.random.default_rng(0)
        X, y = balanced_data(rng, 60, 3, 3)
        forest = RandomForestClassifier(
            n_estimators=5, min_samples_split=10**6, seed=0).fit(X, y)
        assert all(t.node_count == 1 for t in forest.estimators_)
        assert forest._table_.depth == 0
        assert_matches_reference(forest, rng.normal(size=(9, 3)))

    def test_class_subset_tree_pads_columns(self):
        """A tree that never saw class 1 (a class-incomplete bootstrap)
        scatters its two columns into the forest's three."""
        rng = np.random.default_rng(1)
        X, y = balanced_data(rng, 90, 4, 3)
        forest = RandomForestClassifier(n_estimators=3, seed=1).fit(X, y)
        keep = y != 1
        subset = DecisionTreeClassifier(max_depth=4, seed=2).fit(X[keep], y[keep])
        assert subset.classes_.tolist() == [0, 2]
        stump = DecisionTreeClassifier(min_samples_split=10**6).fit(X, y)
        forest.estimators_ = [forest.estimators_[0], subset, stump,
                              *forest.estimators_[1:]]
        forest = pickle.loads(pickle.dumps(forest))  # recompiles the table
        Xq = np.vstack([rng.integers(0, 15, size=(50, 4)) / 2.0,
                        on_threshold_rows(forest, 4)])
        assert_matches_reference(forest, Xq)

    def test_more_rows_than_one_block(self):
        rng = np.random.default_rng(2)
        X, y = balanced_data(rng, 200, 5, 2)
        forest = RandomForestClassifier(n_estimators=4, max_depth=6, seed=2).fit(X, y)
        Xq = rng.integers(0, 15, size=(2 * _BLOCK_ROWS + 3, 5)) / 2.0
        assert_matches_reference(forest, Xq)

    def test_no_per_tree_loop_left(self):
        source = inspect.getsource(forest_module)
        assert "tree._apply" not in source
        assert "_padded_tree_values" not in source


class TestPanelIdentity:
    @pytest.fixture()
    def fitted(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 4))
        y = (X[:, 0] + X[:, 2] > 0).astype(int)
        scaler = StandardScaler().fit(X)
        forest = RandomForestClassifier(n_estimators=5, max_depth=5, seed=3)
        return forest.fit(scaler.transform(X), y), scaler, X

    @staticmethod
    def pack(forest, scaler):
        return pack_panel(1, scaler, {"rf": forest}, ["a", "b", "c", "d"])

    def test_hash_ignores_serving_history(self, fitted):
        forest, scaler, X = fitted
        before = panel_content_hash(self.pack(forest, scaler))
        forest.predict(X[:7])
        assert panel_content_hash(self.pack(forest, scaler)) == before

    def test_hash_survives_pickle_round_trip(self, fitted):
        """A worker that installs a panel blob, serves from it and packs
        it again reproduces the hash it was sent."""
        forest, scaler, X = fitted
        blob = self.pack(forest, scaler)
        panel = unpack_panel(blob)
        clone = panel["models"]["rf"]
        assert clone.predict_proba(X).tobytes() == forest.predict_proba(X).tobytes()
        repacked = pack_panel(panel["panel_epoch"], panel["scaler"],
                              panel["models"], panel["feature_names"])
        assert panel_content_hash(repacked) == panel_content_hash(blob)

    def test_table_built_eagerly_never_pickled(self, fitted):
        forest, _, _ = fitted
        assert "_table_" in vars(forest)
        assert "_table_" not in forest.__getstate__()
        assert "_table_" in vars(pickle.loads(pickle.dumps(forest)))

    def test_legacy_state_drops_per_tree_cache(self, fitted):
        """Blobs written before the node table carry ``_tree_values_``;
        loading one drops it and compiles the table."""
        forest, _, X = fitted
        state = dict(vars(forest))
        del state["_table_"]
        state["_tree_values_"] = [t.value_ for t in forest.estimators_]
        legacy = RandomForestClassifier.__new__(RandomForestClassifier)
        legacy.__setstate__(state)
        assert "_tree_values_" not in vars(legacy)
        assert legacy.predict_proba(X).tobytes() == forest.predict_proba(X).tobytes()

    def test_unfitted_forest_pickles(self):
        clone = pickle.loads(pickle.dumps(RandomForestClassifier(n_estimators=3)))
        assert "_table_" not in vars(clone)
        with pytest.raises(RuntimeError):
            clone.predict(np.zeros((1, 2)))
