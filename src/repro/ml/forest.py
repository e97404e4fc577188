"""Random forest classifier (the paper's RF model).

Bagged CART trees with per-split feature subsampling.  Probabilities are
the across-tree mean of leaf class distributions; feature importances are
the across-tree mean of impurity-decrease importances — the statistic the
paper ranks in Table V.

``max_samples`` caps the bootstrap size, which is the practical lever for
training on captures with hundreds of thousands of packets without
sacrificing the ensemble's behaviour (each tree still sees an unbiased
bootstrap draw).

Training parallelizes across trees (``n_jobs``): every tree draws its
bootstrap and split randomness from its own spawned generator stream, so
the fitted forest is a pure function of ``seed`` — bit-identical for any
worker count, including serial.

Inference runs on a compiled forest.  At fit (and on unpickling) every
tree is concatenated into one node table (:class:`_NodeTable`) in which
leaves loop onto themselves, so one vectorized descent walks all trees x
all rows at once instead of one Python level loop per tree.  The descent
steps only the (tree, row) pairs still above a leaf: every other step it
drops the finished ones, and it stops when none is left.  Leaf values
are summed over trees in tree order, so probabilities — and every vote
and digest built on them — are bit-identical to descending one tree at a
time.  The table is derived state: it is never pickled, which keeps a
packed model panel a pure function of the fitted trees.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.common.rng import as_generator

from .base import ClassifierMixin
from .tree import _LEAF, DecisionTreeClassifier

__all__ = ["RandomForestClassifier"]

#: Bootstrap redraws allowed before a class-incomplete draw is an error.
_BOOTSTRAP_ATTEMPTS = 8

#: Rows descended together: bounds the (trees x rows) temporaries of
#: one predict at a few MiB however many rows it is given.
_BLOCK_ROWS = 2048

#: The descent drops finished (tree, row) pairs after every this many
#: steps.  On the campaign panel (25 trees, depth 14) 79 % of the pairs
#: still descend after step 2, 24 % after step 4 and 3 % after step 7;
#: compacting after every step cost more than it saved.
_COMPACT_EVERY = 2

#: Blocks of fewer (tree, row) pairs descend without compaction.  On the
#: flood panel (25 trees, depth 6) compacting cost up to 1 µs more per
#: call at 1-4 rows (25-100 pairs) and saved time from 6 rows (150) on.
_FEW_PAIRS = 128


class _NodeTable(NamedTuple):
    """Every tree of a fitted forest as one concatenated node table.

    The layout is pre-doubled: position ``2*i + s`` is child slot ``s``
    of node ``i``, and every array is indexed by position.  A pair at
    node ``i`` sits at ``cur = 2*i``; one step is ``go = x[feature[cur]]
    <= threshold[cur]`` (1 = left) and ``cur = child[cur + go]``, and
    the node it reached is ``cur >> 1``.  A leaf keeps every row where
    it is — both slots point to itself — and is the only node with
    threshold ``+inf`` (a split lies between two finite values).
    """

    feature: np.ndarray    # (2N,) split feature per slot, 0 on leaves
    threshold: np.ndarray  # (2N,) split threshold per slot, +inf on leaves
    child: np.ndarray      # (2N,) 2 * [right, left] child per node
    value: np.ndarray      # (N, k) class distribution, forest columns
    root: np.ndarray       # (T,) 2 * each tree's root, in tree order
    depth: int             # deepest leaf of any tree


def _compile(trees: List[DecisionTreeClassifier], k: int) -> _NodeTable:
    """Concatenate fitted trees into one :class:`_NodeTable`.

    Trees fitted on a (rare) class-incomplete bootstrap carry fewer
    probability columns than the forest; their values are scattered
    into the forest's ``k`` columns here, once, instead of per predict.
    """
    feature, threshold, child, value, root = [], [], [], [], []
    offset = 0
    for tree in trees:
        m = tree.node_count
        ids = np.arange(offset, offset + m)
        leaf = tree.feature_ == _LEAF
        feature.append(np.where(leaf, 0, tree.feature_))
        threshold.append(np.where(leaf, np.inf, tree.threshold_))
        pair = np.empty((m, 2), dtype=np.intp)
        pair[:, 0] = np.where(leaf, ids, tree.children_right_ + offset)
        pair[:, 1] = np.where(leaf, ids, tree.children_left_ + offset)
        child.append(pair.ravel())
        padded = np.zeros((m, k))
        padded[:, tree.classes_.astype(np.int64)] = tree.value_
        value.append(padded)
        root.append(offset)
        offset += m
    return _NodeTable(
        feature=np.repeat(np.concatenate(feature), 2),
        threshold=np.repeat(np.concatenate(threshold), 2),
        child=2 * np.concatenate(child),
        value=np.concatenate(value),
        root=2 * np.asarray(root, dtype=np.intp),
        depth=max(tree.depth for tree in trees),
    )


def _descend(table: _NodeTable, X: np.ndarray) -> np.ndarray:
    """Mean leaf distribution over all trees for each row of ``X``.

    One loop walks all trees x all rows together, for at most ``depth``
    steps.  Every ``_COMPACT_EVERY`` steps it keeps only the pairs not
    yet at a leaf, after writing every pair's position back to ``node``
    (tree-major, like the pairs), and it stops once none is left.  A
    block of fewer than ``_FEW_PAIRS`` pairs never compacts.  The leaf
    values are then summed over trees in tree order and divided by the
    tree count — the same float operations, in the same order, as
    accumulating one tree at a time, so the result is bit-identical.
    """
    n, n_features = X.shape
    n_trees = table.root.size
    flat = X.ravel()
    cur = np.repeat(table.root, n)  # tree-major: tree t owns [t*n, (t+1)*n)
    row = np.tile(np.arange(0, n * n_features, n_features), n_trees)
    compact = cur.size >= _FEW_PAIRS
    node, pairs = cur, None  # pairs: where the live pairs sit in node
    for step in range(1, table.depth + 1):
        go = flat.take(row + table.feature.take(cur)) <= table.threshold.take(cur)
        cur = table.child.take(cur + go)
        if compact and step % _COMPACT_EVERY == 0:
            live = np.flatnonzero(table.threshold.take(cur) != np.inf)
            if pairs is None:  # until now every pair was live, in order
                node, pairs = cur, live
            else:
                node[pairs] = cur
                pairs = pairs.take(live)
            cur, row = cur.take(live), row.take(live)
            if not live.size:
                break
    if pairs is None:
        node = cur
    else:
        node[pairs] = cur
    leaves = table.value.take(node >> 1, axis=0)
    proba = leaves.reshape(n_trees, n, table.value.shape[1]).sum(axis=0)
    proba /= n_trees
    return proba


def _fit_tree_chunk(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    bootstrap_size: int,
    tree_params: Dict[str, object],
    rngs: List[np.random.Generator],
) -> List[DecisionTreeClassifier]:
    """Fit one contiguous chunk of trees.

    Module-level so it pickles into :class:`ProcessPoolExecutor`
    workers; each tree consumes only its own generator, so chunk
    boundaries (and therefore ``n_jobs``) cannot change the result.
    """
    n = X.shape[0]
    trees: List[DecisionTreeClassifier] = []
    for rng in rngs:
        # A bootstrap draw can miss a class entirely on tiny or very
        # unbalanced data; redraw a few times, then fail loudly — a
        # silently class-blind tree poisons the ensemble's probabilities.
        for _attempt in range(_BOOTSTRAP_ATTEMPTS):
            idx = rng.integers(0, n, size=bootstrap_size)
            yb = y[idx]
            if np.unique(yb).size == n_classes:
                break
        else:
            raise ValueError(
                f"bootstrap draw missed a class {_BOOTSTRAP_ATTEMPTS} times "
                f"in a row (n={n}, max_samples={bootstrap_size}, "
                f"classes={n_classes}); the training set is too small or "
                "too unbalanced — raise max_samples or rebalance"
            )
        tree = DecisionTreeClassifier(seed=rng, **tree_params)
        # Trees see encoded labels directly; bypass re-encoding by
        # fitting through the public API on the encoded targets.
        tree.fit(X[idx], yb)
        trees.append(tree)
    return trees


class RandomForestClassifier(ClassifierMixin):
    """Bootstrap-aggregated decision trees.

    Parameters
    ----------
    n_estimators : int
        Number of trees.
    max_depth : int, optional
        Per-tree depth cap.
    max_features : int | "sqrt" | None
        Features considered per split (default ``"sqrt"``, the standard
        forest heuristic).
    max_samples : int | float | None
        Bootstrap sample size per tree: absolute count, fraction of the
        training set, or ``None`` for the full size.
    min_samples_split, min_samples_leaf : int
        Passed to each tree.
    n_jobs : int
        Worker processes for training (``-1`` = CPU count).  The fitted
        forest is identical for every value — each tree owns a spawned
        RNG stream, so parallelism only moves work, never randomness.
    seed : int | numpy.random.Generator | None
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: Optional[int] = None,
        max_features="sqrt",
        max_samples=None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        n_jobs: int = 1,
        seed=None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1: {n_estimators}")
        if n_jobs == 0:
            raise ValueError("n_jobs must be >= 1 or -1")
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.max_features = max_features
        self.max_samples = max_samples
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.n_jobs = int(n_jobs)
        self.seed = seed

    def _bootstrap_size(self, n: int) -> int:
        if self.max_samples is None:
            return n
        if isinstance(self.max_samples, float):
            if not 0.0 < self.max_samples <= 1.0:
                raise ValueError(f"max_samples fraction out of (0,1]: {self.max_samples}")
            return max(1, int(round(self.max_samples * n)))
        size = int(self.max_samples)
        if size < 1:
            raise ValueError(f"max_samples must be >= 1: {self.max_samples}")
        return min(size, n)

    def _resolve_jobs(self) -> int:
        jobs = self.n_jobs if self.n_jobs > 0 else (os.cpu_count() or 1)
        return max(1, min(jobs, self.n_estimators))

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        m = self._bootstrap_size(X.shape[0])
        k = self.classes_.size
        # One independent generator stream per tree: tree i's randomness
        # depends only on (seed, i), never on which worker fits it or on
        # how many trees precede it in a chunk.
        rngs = as_generator(self.seed).spawn(self.n_estimators)
        params: Dict[str, object] = dict(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
        )
        jobs = self._resolve_jobs()
        if jobs == 1:
            self.estimators_ = _fit_tree_chunk(X, y, k, m, params, rngs)
        else:
            bounds = np.linspace(0, self.n_estimators, jobs + 1).astype(int)
            chunks = [rngs[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                futures = [
                    pool.submit(_fit_tree_chunk, X, y, k, m, params, c)
                    for c in chunks
                ]
                # Collect in submission order: estimators_[i] is tree i
                # regardless of which worker finished first.
                self.estimators_ = [t for fut in futures for t in fut.result()]
        self._table_ = _compile(self.estimators_, k)

        imps = [
            t.feature_importances_
            for t in self.estimators_
            if t.feature_importances_.sum() > 0
        ]
        if imps:
            self.feature_importances_ = np.mean(imps, axis=0)
        else:  # all trees degenerate (e.g. constant features)
            self.feature_importances_ = np.zeros(X.shape[1])

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        # The node table is derived from the trees: leaving it out of the
        # pickle makes a packed panel a pure function of the fitted forest.
        state = dict(self.__dict__)
        state.pop("_table_", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Intern attribute names as default unpickling does: pickle
        # memoizes strings by identity, so a repacked panel is only
        # byte-identical to the blob it came from if the forest's keys
        # are the same objects as its trees' and the scaler's.  Blobs
        # from before the node table carry a per-tree value cache that
        # would otherwise ride along into every later pickle.
        self.__dict__.update(
            (sys.intern(name), value)
            for name, value in state.items()
            if name != "_tree_values_"
        )
        if hasattr(self, "estimators_"):
            self._table_ = _compile(self.estimators_, self.classes_.size)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        if X.shape[0] <= _BLOCK_ROWS:
            return _descend(self._table_, X)
        return np.concatenate([
            _descend(self._table_, X[start:start + _BLOCK_ROWS])
            for start in range(0, X.shape[0], _BLOCK_ROWS)
        ])
