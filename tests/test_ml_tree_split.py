"""Equivalence of the prefix-sum CART split search with the masked search.

``_MaskedSplitSearch._best_split`` below is the original per-threshold
search, kept verbatim as the oracle: for every candidate threshold it
re-masks the node and calls ``_split_score``.  The library's sorted
prefix-sum search must grow node-for-node identical trees (same feature,
threshold and value at every node) on data that exercises duplicate
values, constant columns, the 32-quantile candidate path, zero and
non-uniform sample weights, ``max_features`` subsampling and 2-3 classes.
Vectorized ``predict`` must equal the per-row descent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeClassifier, DecisionTreeRegressor


class _MaskedSplitSearch:
    def _best_split(self, X, y, w):
        best_score = np.inf
        best = None
        for feature in self._feature_candidates(X.shape[1]):
            col = X[:, feature]
            values = np.unique(col)
            if len(values) < 2:
                continue
            # Candidate thresholds between consecutive unique values; cap the
            # number of candidates to keep large fits tractable.
            mids = (values[:-1] + values[1:]) / 2.0
            if len(mids) > 32:
                mids = np.quantile(col, np.linspace(0.02, 0.98, 32))
            for threshold in np.unique(mids):
                mask = col <= threshold
                if not mask.any() or mask.all():
                    continue
                score = self._split_score(y, w, mask)
                if score < best_score:
                    best_score = score
                    best = (int(feature), float(threshold))
        return best


class _OracleRegressor(_MaskedSplitSearch, DecisionTreeRegressor):
    pass


class _OracleClassifier(_MaskedSplitSearch, DecisionTreeClassifier):
    pass


def _nodes(node):
    """Pre-order (feature, threshold, value) of every node."""
    out = [(node.feature, node.threshold, node.value)]
    if not node.is_leaf:
        out += _nodes(node.left) + _nodes(node.right)
    return out


def _descend(tree, x):
    node = tree._root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.value


_POOL = [-2.5, -1.0, 0.0, 1e-7, 0.25, 1.0, 3.0, 1e4]


@st.composite
def _columns(draw, n):
    kind = draw(st.sampled_from(["constant", "duplicates", "many", "floats"]))
    if kind == "constant":
        return np.full(n, draw(st.sampled_from(_POOL)))
    if kind == "duplicates":
        return np.array(draw(st.lists(st.sampled_from(_POOL), min_size=n, max_size=n)))
    if kind == "many":
        # n distinct values (the quantile path once n > 33), in drawn order.
        perm = draw(st.permutations(range(n)))
        return np.array(perm, dtype=float) * draw(st.sampled_from([0.1, 1.0, 1e3]))
    floats = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    return np.array(draw(st.lists(floats, min_size=n, max_size=n)))


@st.composite
def _weights(draw, n):
    kind = draw(st.sampled_from(["none", "pool", "floats"]))
    if kind == "none":
        return None
    if kind == "pool":
        pool = st.sampled_from([0.0, 1e-9, 0.1, 0.5, 1.0, 3.7, 1e6])
        return np.array(draw(st.lists(pool, min_size=n, max_size=n)))
    floats = st.floats(0.0, 10.0, allow_subnormal=False)
    return np.array(draw(st.lists(floats, min_size=n, max_size=n)))


@st.composite
def _problems(draw, classify):
    n = draw(st.one_of(st.integers(2, 12), st.integers(34, 80)))
    d = draw(st.integers(1, 4))
    X = np.column_stack([draw(_columns(n)) for _ in range(d)])
    if classify:
        n_classes = draw(st.integers(2, 3))
        labels = st.integers(0, n_classes - 1)
        y = np.array(draw(st.lists(labels, min_size=n, max_size=n)))
    else:
        values = st.one_of(
            st.sampled_from(_POOL),
            st.floats(-100, 100, allow_nan=False, allow_subnormal=False),
        )
        y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    params = {
        "max_depth": draw(st.integers(1, 4)),
        "max_features": draw(st.one_of(st.none(), st.integers(1, d))),
        "seed": draw(st.integers(0, 3)),
    }
    return X, y, draw(_weights(n)), params


def _assert_same_fit(fast_cls, oracle_cls, problem):
    X, y, w, params = problem
    fast = fast_cls(**params).fit(X, y, sample_weight=w)
    oracle = oracle_cls(**params).fit(X, y, sample_weight=w)
    assert _nodes(fast._root) == _nodes(oracle._root)
    expected = np.array([_descend(fast, x) for x in X])
    got = fast.predict(X)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=150, deadline=None)
@given(_problems(classify=False))
def test_regressor_matches_masked_search(problem):
    _assert_same_fit(DecisionTreeRegressor, _OracleRegressor, problem)


# The oracle scores a zero-weight node as 0/0 (NaN, never a split).
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_problems(classify=True))
def test_classifier_matches_masked_search(problem):
    _assert_same_fit(DecisionTreeClassifier, _OracleClassifier, problem)


def test_gbdt_residual_fits_match_masked_search():
    # Gradient boosting's regime: boosted-residual regression trees
    # on a few thousand rows with many tied scores.
    rng = np.random.default_rng(7)
    X = np.column_stack([
        rng.integers(0, 5, 2048).astype(float),
        (rng.integers(0, 1629, 2048) + 0.5) / 1629,
        np.repeat([1.0, 0.0], 1024),
    ])
    y = rng.random(2048) - 0.25
    for depth in (1, 3):
        fast = DecisionTreeRegressor(max_depth=depth).fit(X, y)
        oracle = _OracleRegressor(max_depth=depth).fit(X, y)
        assert _nodes(fast._root) == _nodes(oracle._root)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_and_inf_features_match_masked_search():
    # np.unique collapses NaNs and inf - inf midpoints are NaN; the
    # sorted-column thresholds must reproduce both quirks.
    rng = np.random.default_rng(1)
    for trial in range(40):
        n = int(rng.integers(3, 60))
        X = rng.integers(0, 40, size=(n, 3)).astype(float)
        X[rng.random((n, 3)) < 0.2] = np.nan
        X[rng.random((n, 3)) < 0.1] = np.inf if trial % 2 else -np.inf
        y = rng.normal(size=n)
        fast = DecisionTreeRegressor(max_depth=3).fit(X, y)
        oracle = _OracleRegressor(max_depth=3).fit(X, y)
        assert _nodes(fast._root) == _nodes(oracle._root)
        expected = np.array([_descend(fast, x) for x in X])
        np.testing.assert_array_equal(fast.predict(X), expected)


def test_predict_on_unseen_rows_and_empty_input():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = np.where(X[:, 0] > 0, "hot", "cold")
    tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
    X_new = rng.normal(size=(25, 3)) * 2
    expected = np.array([_descend(tree, x) for x in X_new])
    got = tree.predict(X_new)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    empty = tree.predict(np.empty((0, 3)))
    assert empty.shape == (0,) and empty.dtype == np.array([]).dtype
