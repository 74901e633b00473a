"""Bit-identity of the flat-buffer Adam loop with the per-layer loop.

``_PerLayerAdam._fit_loop`` below is the original training loop, kept
verbatim as the oracle: it keeps one Adam ``m``/``v`` array per weight
and bias and updates them layer by layer.  The library's loop updates
one flat parameter vector in place; it must train bitwise-identical
weights, biases and ``loss_curve_`` (and hence predictions) for both
heads, every depth, with and without L2, and on batches that are
smaller than, or do not divide, the training set.
"""

import itertools

import numpy as np
import pytest

from repro.ml import MLPClassifier, MLPRegressor
from repro.ml.preprocessing import one_hot


class _PerLayerAdam:
    def _fit_loop(self, X, T):
        n = len(X)
        self._init_params(X.shape[1], T.shape[1])
        rng = np.random.default_rng(self.seed + 1)
        # Adam state
        m_w = [np.zeros_like(W) for W in self.weights_]
        v_w = [np.zeros_like(W) for W in self.weights_]
        m_b = [np.zeros_like(b) for b in self.biases_]
        v_b = [np.zeros_like(b) for b in self.biases_]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        self.loss_curve_ = []
        batch = min(self.batch_size, n)
        for epoch in range(self.n_epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                acts = self._forward(X[idx])
                delta, loss = self._output_grad(acts[-1], T[idx])
                epoch_loss += loss * len(idx)
                grads_w = []
                grads_b = []
                for layer in range(len(self.weights_) - 1, -1, -1):
                    a_prev = acts[layer]
                    grads_w.append(a_prev.T @ delta / len(idx) + self.l2 * self.weights_[layer])
                    grads_b.append(delta.mean(axis=0))
                    if layer > 0:
                        delta = (delta @ self.weights_[layer].T) * (acts[layer] > 0)
                grads_w.reverse()
                grads_b.reverse()
                step += 1
                for layer in range(len(self.weights_)):
                    m_w[layer] = beta1 * m_w[layer] + (1 - beta1) * grads_w[layer]
                    v_w[layer] = beta2 * v_w[layer] + (1 - beta2) * grads_w[layer] ** 2
                    m_b[layer] = beta1 * m_b[layer] + (1 - beta1) * grads_b[layer]
                    v_b[layer] = beta2 * v_b[layer] + (1 - beta2) * grads_b[layer] ** 2
                    mw_hat = m_w[layer] / (1 - beta1**step)
                    vw_hat = v_w[layer] / (1 - beta2**step)
                    mb_hat = m_b[layer] / (1 - beta1**step)
                    vb_hat = v_b[layer] / (1 - beta2**step)
                    self.weights_[layer] -= self.lr * mw_hat / (np.sqrt(vw_hat) + eps)
                    self.biases_[layer] -= self.lr * mb_hat / (np.sqrt(vb_hat) + eps)
            self.loss_curve_.append(epoch_loss / n)


class _OracleClassifier(_PerLayerAdam, MLPClassifier):
    def fit(self, X, y):
        # The original label mapping: a per-row dict lookup.
        X = self._prep_X(X)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        idx = {c: i for i, c in enumerate(self.classes_)}
        labels = np.array([idx[v] for v in y])
        T = one_hot(labels, n_classes=len(self.classes_))
        self._fit_loop(X, T)
        return self


class _OracleRegressor(_PerLayerAdam, MLPRegressor):
    pass


#: (rows, batch, outputs): fewer rows than a batch, a partial last
#: batch, and several outputs (classes for the classifier).
_DATA = {"n<batch": (20, 32, 1), "partial": (150, 32, 1), "multi": (96, 16, 3)}


def _problem(kind, shape):
    n, batch, outputs = _DATA[shape]
    rng = np.random.default_rng(n + outputs)
    X = rng.normal(size=(n, 5))
    signal = X @ rng.normal(size=(5, outputs)) + 0.3 * rng.normal(size=(n, outputs))
    if kind == "classifier":
        # Two classes for single-output shapes, four otherwise.
        y = np.digitize(signal[:, 0], np.quantile(signal[:, 0], [0.25, 0.5, 0.75]))
        y = y if outputs > 1 else (y >= 2).astype(int)
    else:
        y = np.sin(signal) if outputs > 1 else np.sin(signal[:, 0])
    return X, y, batch


def _assert_same_training(fast, oracle, X):
    assert len(fast.weights_) == len(oracle.weights_)
    for got, want in zip(fast.weights_ + fast.biases_, oracle.weights_ + oracle.biases_):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want, strict=True)
    np.testing.assert_array_equal(fast.loss_curve_, oracle.loss_curve_, strict=True)
    np.testing.assert_array_equal(fast.predict(X), oracle.predict(X), strict=True)
    if hasattr(fast, "predict_proba"):
        np.testing.assert_array_equal(fast.predict_proba(X), oracle.predict_proba(X))


_GRID = list(itertools.product(
    ["classifier", "regressor"],
    [(), (12,), (32, 16), (96, 96)],
    [0.0, 1e-3],
    sorted(_DATA),
))


@pytest.mark.parametrize("kind,hidden,l2,shape", _GRID)
def test_flat_adam_matches_per_layer_adam(kind, hidden, l2, shape):
    X, y, batch = _problem(kind, shape)
    fast_cls, oracle_cls = {
        "classifier": (MLPClassifier, _OracleClassifier),
        "regressor": (MLPRegressor, _OracleRegressor),
    }[kind]
    params = dict(hidden=hidden, lr=3e-3, n_epochs=15, batch_size=batch, l2=l2, seed=3)
    fast = fast_cls(**params).fit(X, y)
    oracle = oracle_cls(**params).fit(X, y)
    _assert_same_training(fast, oracle, X)


def test_returned_layers_share_no_memory():
    X, y, batch = _problem("regressor", "multi")
    model = MLPRegressor(hidden=(12, 8), n_epochs=2, batch_size=batch).fit(X, y)
    arrays = model.weights_ + model.biases_
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)
    # Editing one layer after the fit (as pruning and crossbar studies
    # do) leaves every other layer as trained.
    before = [a.copy() for a in arrays]
    model.weights_[0][...] = 0.0
    for got, want in zip(arrays[1:], before[1:]):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("labels", [
    ["cold", "hot", "warm"],
    [-7, 3, 40],
    [2.5, 10.0, 1e3],
])
def test_label_mapping_matches_dict_lookup(labels):
    X, y, batch = _problem("classifier", "multi")
    y = np.asarray(labels)[y % 3]
    params = dict(hidden=(8,), n_epochs=5, batch_size=batch, seed=1)
    fast = MLPClassifier(**params).fit(X, y)
    oracle = _OracleClassifier(**params).fit(X, y)
    np.testing.assert_array_equal(fast.classes_, oracle.classes_, strict=True)
    _assert_same_training(fast, oracle, X)
