"""Multi-layer perceptrons (classifier and regressor).

MLPs appear across the survey: SER estimation [43], DNN anomaly/symptom
detection [30], WarningNet input-perturbation detection [32], crossbar
fault-criticality prediction [28], and vulnerability-factor estimation [2].
This implementation uses ReLU hidden layers, softmax/identity outputs, and
mini-batch Adam.
"""

from __future__ import annotations

import numpy as np

from repro.ml.preprocessing import one_hot


def _relu(z):
    return np.maximum(z, 0.0)


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class _MLPBase:
    def __init__(
        self,
        hidden=(32,),
        lr=1e-3,
        n_epochs=200,
        batch_size=32,
        l2=0.0,
        seed=0,
    ):
        self.hidden = tuple(hidden)
        self.lr = lr
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.seed = seed
        self.weights_ = None
        self.biases_ = None
        self.loss_curve_ = []

    # -- architecture -------------------------------------------------------
    def _init_params(self, n_in, n_out):
        rng = np.random.default_rng(self.seed)
        sizes = [n_in, *self.hidden, n_out]
        self.weights_ = []
        self.biases_ = []
        for a, b in zip(sizes[:-1], sizes[1:]):
            # He initialization for ReLU layers.
            self.weights_.append(rng.normal(0.0, np.sqrt(2.0 / a), (a, b)))
            self.biases_.append(np.zeros(b))

    def _forward(self, X):
        """Return per-layer activations; last entry is the pre-output linear map."""
        activations = [X]
        h = X
        for W, b in zip(self.weights_[:-1], self.biases_[:-1]):
            h = _relu(h @ W + b)
            activations.append(h)
        z = h @ self.weights_[-1] + self.biases_[-1]
        activations.append(z)
        return activations

    def _fit_loop(self, X, T):
        """Mini-batch Adam over one flat parameter vector.

        Every weight and bias is a view into ``params`` (weights first, so
        the L2 term is one slice) and every gradient a view into ``grads``,
        so one Adam step is a fixed handful of whole-vector in-place ufuncs.
        Each element still sees the per-layer update's operations in the
        same order, so the trained weights and ``loss_curve_`` are
        bit-identical to updating layer by layer.
        """
        n = len(X)
        self._init_params(X.shape[1], T.shape[1])
        layers = self.weights_ + self.biases_
        offsets = np.cumsum([0] + [a.size for a in layers])
        params = np.concatenate([a.ravel() for a in layers])
        grads = np.empty_like(params)

        def views(buf):
            return [buf[lo:hi].reshape(a.shape)
                    for lo, hi, a in zip(offsets, offsets[1:], layers)]

        n_layers = len(self.weights_)
        n_weights = offsets[n_layers]
        p_views, g_views = views(params), views(grads)
        weights, biases = p_views[:n_layers], p_views[n_layers:]
        grad_w, grad_b = g_views[:n_layers], g_views[n_layers:]
        # Adam state and two scratch vectors.
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        s1 = np.empty_like(params)
        s2 = np.empty_like(params)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        rng = np.random.default_rng(self.seed + 1)
        step = 0
        self.loss_curve_ = []
        batch = min(self.batch_size, n)
        for epoch in range(self.n_epochs):
            order = rng.permutation(n)
            Xp, Tp = X[order], T[order]
            epoch_loss = 0.0
            for start in range(0, n, batch):
                acts = [Xp[start : start + batch]]
                nb = len(acts[0])
                for W, b in zip(weights[:-1], biases[:-1]):
                    h = acts[-1] @ W
                    h += b
                    np.maximum(h, 0.0, out=h)
                    acts.append(h)
                z = acts[-1] @ weights[-1]
                z += biases[-1]
                delta, loss = self._output_grad(z, Tp[start : start + batch])
                epoch_loss += loss * nb
                for layer in range(n_layers - 1, -1, -1):
                    np.matmul(acts[layer].T, delta, out=grad_w[layer])
                    grad_w[layer] /= nb
                    np.add.reduce(delta, axis=0, out=grad_b[layer])
                    grad_b[layer] /= nb
                    if layer > 0:
                        delta = delta @ weights[layer].T
                        delta *= acts[layer] > 0
                if self.l2:
                    # Skipped at l2=0: adding 0*W to finite weights can only
                    # flip the sign of a zero gradient, which neither Adam
                    # moment below can see.
                    np.multiply(params[:n_weights], self.l2, out=s1[:n_weights])
                    grads[:n_weights] += s1[:n_weights]
                step += 1
                m *= beta1
                np.multiply(grads, 1 - beta1, out=s1)
                m += s1
                v *= beta2
                np.square(grads, out=s1)
                s1 *= 1 - beta2
                v += s1
                np.divide(m, 1 - beta1**step, out=s1)
                np.divide(v, 1 - beta2**step, out=s2)
                np.sqrt(s2, out=s2)
                s2 += eps
                s1 *= self.lr
                s1 /= s2
                params -= s1
            self.loss_curve_.append(epoch_loss / n)
        # Independent arrays: callers replace and edit layers after a fit.
        self.weights_ = [W.copy() for W in weights]
        self.biases_ = [b.copy() for b in biases]

    @staticmethod
    def _prep_X(X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        return X

    def n_parameters(self):
        """Total trainable parameter count (used for overhead accounting)."""
        if self.weights_ is None:
            raise RuntimeError("model is not fitted")
        return int(
            sum(W.size for W in self.weights_) + sum(b.size for b in self.biases_)
        )

    def _output_grad(self, z, T):
        raise NotImplementedError


class MLPClassifier(_MLPBase):
    """Softmax-output MLP trained with cross-entropy."""

    def fit(self, X, y):
        X = self._prep_X(X)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        labels = np.searchsorted(self.classes_, y)
        T = one_hot(labels, n_classes=len(self.classes_))
        self._fit_loop(X, T)
        return self

    def _output_grad(self, z, T):
        P = _softmax(z)
        loss = float(-np.mean(np.sum(T * np.log(np.clip(P, 1e-12, None)), axis=1)))
        return P - T, loss

    def predict_proba(self, X):
        if self.weights_ is None:
            raise RuntimeError("model is not fitted")
        X = self._prep_X(X)
        return _softmax(self._forward(X)[-1])

    def predict(self, X):
        probs = self.predict_proba(X)  # raises RuntimeError when unfitted
        return self.classes_[np.argmax(probs, axis=1)]


class MLPRegressor(_MLPBase):
    """Identity-output MLP trained with mean squared error."""

    def fit(self, X, y):
        X = self._prep_X(X)
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y.reshape(-1, 1)
        self._n_outputs = y.shape[1]
        self._fit_loop(X, y)
        return self

    def _output_grad(self, z, T):
        loss = float(np.mean((z - T) ** 2))
        return 2.0 * (z - T) / T.shape[1], loss

    def predict(self, X):
        if self.weights_ is None:
            raise RuntimeError("model is not fitted")
        X = self._prep_X(X)
        out = self._forward(X)[-1]
        if self._n_outputs == 1:
            return out.ravel()
        return out
