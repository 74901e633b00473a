"""k-nearest-neighbor classifier and regressor.

The paper (Sec. III-B1, ref [20]) highlights kNN as one of the simple
models that predict flip-flop vulnerability from structural features.
"""

from __future__ import annotations

import numpy as np


class _KNNBase:
    def __init__(self, n_neighbors=5):
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be positive")
        self.n_neighbors = n_neighbors
        self._X = None
        self._y = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        self._X = X
        self._y = y
        return self

    def _neighbor_indices(self, X):
        if self._X is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        # Pairwise squared distances via the expansion trick.
        d2 = (
            (X**2).sum(axis=1)[:, None]
            + (self._X**2).sum(axis=1)[None, :]
            - 2.0 * X @ self._X.T
        )
        k = min(self.n_neighbors, len(self._X))
        return np.argsort(d2, axis=1)[:, :k]


class KNeighborsClassifier(_KNNBase):
    """Majority-vote kNN classification."""

    def fit(self, X, y):
        super().fit(X, y)
        self.classes_ = np.unique(self._y)
        return self

    def predict(self, X):
        idx = self._neighbor_indices(X)
        labels = self._y[idx]
        out = np.empty(len(labels), dtype=self._y.dtype)
        for i, row in enumerate(labels):
            values, counts = np.unique(row, return_counts=True)
            out[i] = values[np.argmax(counts)]
        return out

    def predict_proba(self, X):
        """Fraction of neighbors per class, columns ordered as ``classes_``."""
        neigh = self._y[self._neighbor_indices(X)]
        return (neigh[:, :, None] == self.classes_).mean(axis=1)


class KNeighborsRegressor(_KNNBase):
    """Mean-of-neighbors kNN regression."""

    def predict(self, X):
        idx = self._neighbor_indices(X)
        return self._y[idx].astype(float).mean(axis=1)
