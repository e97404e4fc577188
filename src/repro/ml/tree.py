"""CART decision tree with a fully vectorized split search.

The split search is the hot path of random-forest training, so it is
written NumPy-first: per candidate feature the node's rows are sorted
once, class counts become prefix sums, and the Gini impurity of *every*
candidate threshold is evaluated in one vectorized expression — no
per-threshold Python loop.  Tree structure is stored in flat parallel
arrays (``feature_``, ``threshold_``, ``children_left_`` …), which makes
prediction a vectorized level-by-level descent instead of per-sample
recursion.

Impurity-decrease feature importances (the quantity behind the paper's
Table V for the RF model) are accumulated during construction exactly as
in scikit-learn: each split contributes its weighted impurity decrease
to the split feature, normalized at the end.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.rng import as_generator

from .base import ClassifierMixin

__all__ = ["DecisionTreeClassifier"]

_LEAF = -1


def _gini_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini impurity for rows of class counts (vectorized over rows).

    ``counts`` has shape (m, k); ``totals`` shape (m,).  Rows with zero
    total get impurity 0.
    """
    safe = np.maximum(totals, 1)[:, None]
    p = counts / safe
    return 1.0 - np.einsum("ij,ij->i", p, p)


class DecisionTreeClassifier(ClassifierMixin):
    """Binary-split CART classifier (Gini criterion).

    Parameters
    ----------
    max_depth : int, optional
        Depth cap; ``None`` grows until purity/minimum-size limits.
    min_samples_split : int
        Minimum node size eligible for splitting.
    min_samples_leaf : int
        Minimum samples on each side of a split.
    max_features : int | "sqrt" | None
        Features examined per split; ``"sqrt"`` is the forest default.
    seed : int | numpy.random.Generator | None
        Randomness for the feature subsampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        seed=None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1: {max_depth}")
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2: {min_samples_split}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1: {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.seed = seed

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        mf = int(self.max_features)
        if not 1 <= mf <= n_features:
            raise ValueError(f"max_features out of range: {self.max_features}")
        return mf

    def _best_split(self, X, y_onehot, idx, features, presort=None, ranks=None):
        """Best (feature, threshold, gain) over the candidate features.

        Returns ``(feature, threshold, impurity_decrease, left_mask)`` or
        ``None`` when no valid split exists.

        ``presort``/``ranks`` are the fit-time per-feature sort caches.
        Dense nodes (holding at least 1/4 of the samples — the root and
        the top levels, where the sort work concentrates) don't sort at
        all: they *filter* the feature's global presorted order by node
        membership, an O(n_samples) vectorized scan replacing an
        O(n log n) argsort.  Small, deep nodes sort the gathered int32
        ranks — distinct integer keys, so the unstable default sort
        yields the stable value-order permutation.  Both reuses are
        exact, not approximate: a node's index set is ascending
        (children inherit parent order), so ordering by (value, global
        position) — what the filtered order and the ranks both encode —
        tie-breaks exactly like the stable value-sort of the node's
        column, and thresholds/prefix counts come out bit-for-bit the
        same as the direct argsort.
        """
        n = idx.size
        msl = self.min_samples_leaf
        counts_total = y_onehot[idx].sum(axis=0)
        parent_gini = _gini_from_counts(counts_total[None, :], np.array([n]))[0]
        if parent_gini == 0.0:
            return None

        is_root = n == X.shape[0]
        use_filter = presort is not None and n * 4 >= X.shape[0]
        node_mask = None
        if use_filter and not is_root:
            node_mask = np.zeros(X.shape[0], dtype=bool)
            node_mask[idx] = True
        best = None
        best_score = parent_gini  # must strictly improve
        for f in features:
            if use_filter:
                og = presort[:, f]
                sub = og if is_root else og[node_mask[og]]
                xs_sorted = X[sub, f]
                onehot_sorted = y_onehot[sub]
            else:
                xs = X[idx, f]
                if ranks is not None:
                    order = np.argsort(ranks[idx, f])
                else:
                    order = np.argsort(xs, kind="stable")
                xs_sorted = xs[order]
                # Prefix class counts after each position i (split
                # between i and i+1).
                onehot_sorted = y_onehot[idx[order]]
            left_counts = np.cumsum(onehot_sorted, axis=0)[:-1]  # (n-1, k)
            nl = np.arange(1, n)
            nr = n - nl
            valid = xs_sorted[1:] > xs_sorted[:-1]
            if msl > 1:
                valid &= (nl >= msl) & (nr >= msl)
            if not valid.any():
                continue
            right_counts = counts_total[None, :] - left_counts
            gl = _gini_from_counts(left_counts, nl)
            gr = _gini_from_counts(right_counts, nr)
            weighted = (nl * gl + nr * gr) / n
            weighted[~valid] = np.inf
            pos = int(np.argmin(weighted))
            if weighted[pos] < best_score - 1e-12:
                best_score = weighted[pos]
                lo, hi = float(xs_sorted[pos]), float(xs_sorted[pos + 1])
                thr = 0.5 * (lo + hi)
                if not lo <= thr < hi:  # the midpoint overflowed or rounded to hi
                    thr = lo
                best = (int(f), float(thr), parent_gini - weighted[pos])
        if best is None:
            return None
        f, thr, gain = best
        return f, thr, gain, X[idx, f] <= thr

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = as_generator(self.seed)
        n_samples, n_features = X.shape
        k = self.classes_.size
        mf = self._resolve_max_features(n_features)
        y_onehot = np.zeros((n_samples, k), dtype=np.float64)
        y_onehot[np.arange(n_samples), y] = 1.0

        # Per-feature sort caches, computed once per fit: the stable
        # value order (reused verbatim by the root split search) and its
        # inverse permutation as int32 ranks (interior nodes sort these
        # instead of re-sorting float64 columns at every node).
        # Column-major: the split search reads one feature column at a
        # time, so F-order keeps each gather contiguous.
        presort = np.empty((n_samples, n_features), dtype=np.int32, order="F")
        ranks = np.empty((n_samples, n_features), dtype=np.int32, order="F")
        pos = np.arange(n_samples, dtype=np.int32)
        for f in range(n_features):
            order = np.argsort(X[:, f], kind="stable").astype(np.int32)
            presort[:, f] = order
            ranks[order, f] = pos

        feature, threshold = [], []
        left, right = [], []
        value, n_node = [], []
        importances = np.zeros(n_features)

        # Iterative construction: stack of (node_id, indices, depth).
        root_idx = np.arange(n_samples)
        stack = [(0, root_idx, 0)]
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(None)
        n_node.append(n_samples)

        while stack:
            node_id, idx, depth = stack.pop()
            counts = y_onehot[idx].sum(axis=0)
            value[node_id] = counts
            n_node[node_id] = idx.size

            depth_ok = self.max_depth is None or depth < self.max_depth
            size_ok = idx.size >= self.min_samples_split
            split = None
            if depth_ok and size_ok:
                if mf < n_features:
                    cand = rng.choice(n_features, size=mf, replace=False)
                else:
                    cand = np.arange(n_features)
                split = self._best_split(X, y_onehot, idx, cand, presort, ranks)
            if split is None:
                continue  # stays a leaf

            f, thr, gain, left_mask = split
            importances[f] += idx.size / n_samples * gain
            li, ri = idx[left_mask], idx[~left_mask]

            feature[node_id] = f
            threshold[node_id] = thr
            for child_idx in (li, ri):
                feature.append(_LEAF)
                threshold.append(0.0)
                left.append(_LEAF)
                right.append(_LEAF)
                value.append(None)
                n_node.append(child_idx.size)
            left[node_id] = len(feature) - 2
            right[node_id] = len(feature) - 1
            stack.append((left[node_id], li, depth + 1))
            stack.append((right[node_id], ri, depth + 1))

        self.feature_ = np.asarray(feature, dtype=np.int64)
        self.threshold_ = np.asarray(threshold, dtype=np.float64)
        self.children_left_ = np.asarray(left, dtype=np.int64)
        self.children_right_ = np.asarray(right, dtype=np.int64)
        val = np.vstack(value)
        self.value_ = val / np.maximum(val.sum(axis=1, keepdims=True), 1.0)
        self.n_node_samples_ = np.asarray(n_node, dtype=np.int64)
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def apply(self, X) -> np.ndarray:
        """Leaf index reached by each sample (vectorized descent)."""
        return self._apply(self._check_predict_input(X))

    def _apply(self, X: np.ndarray) -> np.ndarray:
        """:meth:`apply` minus input validation, for callers (the forest,
        :meth:`_predict_proba`) whose input is already validated."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature_[node]
            active = feat != _LEAF
            if not active.any():
                return node
            rows = np.flatnonzero(active)
            f = feat[rows]
            thr = self.threshold_[node[rows]]
            go_left = X[rows, f] <= thr
            nxt = np.where(
                go_left,
                self.children_left_[node[rows]],
                self.children_right_[node[rows]],
            )
            node[rows] = nxt

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        # X is already validated by the public predict_proba entry.
        leaves = self._apply(X)
        return self.value_[leaves]

    @property
    def node_count(self) -> int:
        if not hasattr(self, "feature_"):
            raise RuntimeError("tree is not fitted")
        return int(self.feature_.shape[0])

    @property
    def depth(self) -> int:
        """Maximum root-to-leaf depth of the fitted tree.

        Level-by-level frontier walk: one vectorized gather per tree
        level instead of a Python loop over every node.
        """
        if not hasattr(self, "feature_"):
            raise RuntimeError("tree is not fitted")
        frontier = np.zeros(1, dtype=np.int64)  # root
        levels = -1
        while frontier.size:
            levels += 1
            internal = frontier[self.feature_[frontier] != _LEAF]
            frontier = np.concatenate(
                (self.children_left_[internal], self.children_right_[internal])
            )
        return levels
