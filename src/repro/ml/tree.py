"""CART decision trees (classification and regression).

Decision trees are the base learners for the boosting/forest models in
:mod:`repro.ml.ensemble`; gradient-boosted trees are the model family the
survey reports as most consistently accurate for scale-dependent error
prediction ([21]) and HPC error-pattern mining ([22]).
"""

from __future__ import annotations

import numpy as np

#: Quantile positions of the capped threshold set (more than 32 midpoints).
_QUANTILES = np.linspace(0.02, 0.98, 32)

#: Near-tie window of the split search, per row and relative to the node's
#: ``_score_scale``.  With non-negative weights, either score formula's
#: rounding error is a few ``n * eps`` of that scale (eps = 2.2e-16); every
#: candidate whose prefix-sum score lies within ``_TIE_RTOL * n * scale`` of
#: the fast minimum (~4500x that bound) is re-scored with the exact masked
#: ``_split_score``.
_TIE_RTOL = 1e-12


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value=None):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.value = value

    @property
    def is_leaf(self):
        return self.left is None


def _gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def _dedupe_sorted(a):
    """``np.unique`` of an already sorted, NaN-free array."""
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _thresholds(sorted_col):
    """Candidate split thresholds of one feature column, given sorted.

    Midpoints between consecutive unique values, capped at 32 quantiles
    to keep large fits tractable; the result equals ``np.unique`` of
    either candidate list.
    """
    if np.isnan(sorted_col[-1]):
        values = np.unique(sorted_col)  # np.unique collapses NaNs into one
    else:
        values = _dedupe_sorted(sorted_col)
    if len(values) < 2:
        return None
    mids = (values[:-1] + values[1:]) / 2.0
    if len(mids) > 32:
        return np.unique(np.quantile(sorted_col, _QUANTILES))
    # Midpoints of increasing values never decrease; NaN (from inf - inf
    # or a NaN value) is the only way to break the order.
    return _dedupe_sorted(mids) if not np.isnan(mids).any() else np.unique(mids)


class _TreeBase:
    def __init__(self, max_depth=8, min_samples_split=2, max_features=None, seed=0):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.max_features = max_features
        self.seed = seed
        self._root = None
        self._rng = None

    def _feature_candidates(self, n_features):
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self._rng.choice(n_features, size=self.max_features, replace=False)

    def fit(self, X, y, sample_weight=None):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        y = np.asarray(y)
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        if sample_weight is None:
            sample_weight = np.ones(len(X))
        else:
            sample_weight = np.asarray(sample_weight, dtype=float)
        self._rng = np.random.default_rng(self.seed)
        self._prepare(y)
        self._root = self._build(X, y, sample_weight, depth=0)
        return self

    def _build(self, X, y, w, depth):
        node = _Node(value=self._leaf_value(y, w))
        if depth >= self.max_depth or len(X) < self.min_samples_split or self._pure(y):
            return node
        best = self._best_split(X, y, w)
        if best is None:
            return node
        feature, threshold = best
        mask = X[:, feature] <= threshold
        if mask.all() or not mask.any():
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], w[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], w[~mask], depth + 1)
        return node

    def _best_split(self, X, y, w):
        # Score every candidate threshold from running sums over the sorted
        # columns: one argsort and two cumsums per feature instead of a masked
        # pass per threshold.  Prefix-sum scores are not bit-equal to the
        # two-pass ``_split_score`` (see ``_TIE_RTOL``), so the candidates
        # near the fast minimum are re-scored exactly, in the original
        # feature/threshold order, and the first strictly lower score wins.
        n = len(y)
        features = self._feature_candidates(X.shape[1])
        cols = X[:, features]
        order = np.argsort(cols, axis=0)
        cols = np.take_along_axis(cols, order, axis=0)
        # Sums over the rows left of a cut run forwards, right of it backwards:
        # ``total - left`` would cancel catastrophically on a light right side.
        stats = self._split_stats(y, w)[order]
        suffix = np.cumsum(stats[::-1], axis=0)[::-1]
        prefix = np.cumsum(stats, axis=0, out=stats)  # in place: less peak memory
        candidates, lefts, rights = [], [], []
        for j, feature in enumerate(features):
            thresholds = _thresholds(cols[:, j])
            if thresholds is None:
                continue
            n_left = np.searchsorted(cols[:, j], thresholds, side="right")
            keep = (n_left > 0) & (n_left < n)
            if not keep.any():
                continue
            lefts.append(prefix[n_left[keep] - 1, j])
            rights.append(suffix[n_left[keep], j])
            candidates.append((feature, thresholds[keep]))
        if not candidates:
            return None
        fast = self._prefix_scores(np.concatenate(lefts), np.concatenate(rights))
        finite = np.isfinite(fast)
        if not finite.any():
            return None  # zero total weight: every exact score is NaN too
        near = fast <= fast[finite].min() + _TIE_RTOL * n * self._score_scale(y, w)
        best_score = np.inf
        best = None
        start = 0
        for feature, thresholds in candidates:
            stop = start + len(thresholds)
            col = X[:, feature]
            for threshold in thresholds[near[start:stop]]:
                score = self._split_score(y, w, col <= threshold)
                if score < best_score:
                    best_score = score
                    best = (int(feature), float(threshold))
            start = stop
        return best

    def predict(self, X):
        if self._root is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        # Descend with index partitions: one comparison per internal node
        # over the rows that reach it, instead of one Python walk per row.
        leaf_of = np.empty(len(X), dtype=np.intp)
        values = []
        stack = [(self._root, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if not len(rows):
                continue
            if node.is_leaf:
                leaf_of[rows] = len(values)
                values.append(node.value)
                continue
            go_left = X[rows, node.feature] <= node.threshold
            stack.append((node.right, rows[~go_left]))
            stack.append((node.left, rows[go_left]))
        # Only reached leaves contribute, so the dtype is what a per-row
        # ``np.array`` of leaf values would infer.
        return np.array(values)[leaf_of] if values else np.array([])

    # hooks -----------------------------------------------------------------
    def _prepare(self, y):
        raise NotImplementedError

    def _leaf_value(self, y, w):
        raise NotImplementedError

    def _pure(self, y):
        raise NotImplementedError

    def _split_score(self, y, w, mask):
        raise NotImplementedError

    def _split_stats(self, y, w):
        """Per-row statistics whose prefix sums score any left/right split."""
        raise NotImplementedError

    def _prefix_scores(self, left, right):
        """``_split_score`` for every candidate from summed ``_split_stats``."""
        raise NotImplementedError

    def _score_scale(self, y, w):
        """Magnitude bounding both score formulas' rounding error per row."""
        raise NotImplementedError


class DecisionTreeClassifier(_TreeBase):
    """Gini-impurity CART classifier with optional sample weights."""

    def _prepare(self, y):
        self.classes_ = np.unique(y)
        self._class_index = {c: i for i, c in enumerate(self.classes_)}

    def _weighted_counts(self, y, w):
        counts = np.zeros(len(self.classes_))
        for c, i in self._class_index.items():
            counts[i] = w[y == c].sum()
        return counts

    def _leaf_value(self, y, w):
        counts = self._weighted_counts(y, w)
        return self.classes_[int(np.argmax(counts))]

    def _pure(self, y):
        return len(np.unique(y)) == 1

    def _split_score(self, y, w, mask):
        left = self._weighted_counts(y[mask], w[mask])
        right = self._weighted_counts(y[~mask], w[~mask])
        n_l, n_r = left.sum(), right.sum()
        total = n_l + n_r
        return (n_l * _gini(left) + n_r * _gini(right)) / total

    def _split_stats(self, y, w):
        onehot = np.zeros((len(y), len(self.classes_)))
        onehot[np.arange(len(y)), np.searchsorted(self.classes_, y)] = w
        return onehot

    def _prefix_scores(self, left, right):
        # n * gini(counts) == n - sum(counts**2) / n, and 0 for an empty side.
        n_l, n_r = left.sum(axis=1), right.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            impurity = (
                n_l - np.where(n_l > 0, (left * left).sum(axis=1) / n_l, 0.0)
                + n_r - np.where(n_r > 0, (right * right).sum(axis=1) / n_r, 0.0)
            )
            return impurity / (n_l + n_r)

    def _score_scale(self, y, w):
        return 1.0  # scores are weighted Gini impurities in [0, 1]

    def predict_proba(self, X):
        """Empirical class distribution at the reached leaf.

        Implemented by re-descending and reporting a one-hot distribution of
        the leaf's majority class (leaves store only the argmax); adequate
        for the ensemble use-cases in this library.
        """
        preds = self.predict(X)
        probs = np.zeros((len(preds), len(self.classes_)))
        for i, p in enumerate(preds):
            probs[i, self._class_index[p]] = 1.0
        return probs


class DecisionTreeRegressor(_TreeBase):
    """Variance-reduction CART regressor with optional sample weights."""

    def _prepare(self, y):
        if not np.issubdtype(np.asarray(y).dtype, np.number):
            raise ValueError("regression targets must be numeric")

    def _leaf_value(self, y, w):
        total = w.sum()
        if total == 0:
            return float(np.mean(y))
        return float(np.sum(np.asarray(y, dtype=float) * w) / total)

    def _pure(self, y):
        return float(np.ptp(np.asarray(y, dtype=float))) == 0.0

    def _split_score(self, y, w, mask):
        y = np.asarray(y, dtype=float)

        def wvar(yy, ww):
            total = ww.sum()
            if total == 0:
                return 0.0
            mu = np.sum(yy * ww) / total
            return float(np.sum(ww * (yy - mu) ** 2))

        return wvar(y[mask], w[mask]) + wvar(y[~mask], w[~mask])

    def _split_stats(self, y, w):
        y = np.asarray(y, dtype=float)
        return np.column_stack((w, w * y, w * y * y))

    def _prefix_scores(self, left, right):
        # Weighted SSE of a side: sum(w*y^2) - sum(w*y)^2 / sum(w), 0 if empty.
        def sse(side):
            total = side[:, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                return side[:, 2] - np.where(total > 0, side[:, 1] ** 2 / total, 0.0)

        return sse(left) + sse(right)

    def _score_scale(self, y, w):
        y = np.asarray(y, dtype=float)
        return float(np.sum(w * y * y))
