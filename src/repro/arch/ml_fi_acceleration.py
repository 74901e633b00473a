"""Accelerating fault injection with ML (ref [20], Sec. III-B1).

Ground truth: a full per-element injection campaign over every state
element of every workload, labelling each element vulnerable/robust.
Acceleration: train a simple model (kNN or SVM, as in [20]) on the
campaigns of a *fraction* of the elements and predict the rest from their
structural features.  [20]'s finding — ~20 % of the injection data
suffices for comparable accuracy — is reproduced by
:meth:`FIAccelerationStudy.accuracy_vs_fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.fault_injection import FaultInjector
from repro.arch.vulnerability import element_features, vulnerability_table, vulnerable_labels
from repro.ml.knn import KNeighborsClassifier
from repro.ml.preprocessing import StandardScaler
from repro.ml.svm import LinearSVC


@dataclass
class FIAccelerationResult:
    """Result of one train-fraction evaluation."""

    fraction: float
    model_name: str
    accuracy: float
    injections_used: int
    injections_full: int

    @property
    def injection_savings(self):
        return 1.0 - self.injections_used / self.injections_full


class FIAccelerationStudy:
    """Vulnerability prediction from partial injection campaigns.

    Parameters
    ----------
    programs:
        Workloads pooled into one dataset (element x program samples).
    n_trials_per_element:
        Ground-truth injections per element (the cost being amortized).
    """

    def __init__(self, programs, n_trials_per_element=80, seed=0):
        self.seed = seed
        self.n_trials_per_element = n_trials_per_element
        self._X = []
        self._y = []
        self._n_elements = 0
        for p_idx, program in enumerate(programs):
            injector = FaultInjector(program)
            table = vulnerability_table(
                injector, n_trials_per_element=n_trials_per_element, seed=seed + p_idx
            )
            labels, _ = vulnerable_labels(table)
            elements, X = element_features(program, injector.golden)
            for el, row in zip(elements, X):
                self._X.append(row)
                self._y.append(labels[el])
                self._n_elements += 1
        self._X = np.asarray(self._X)
        self._y = np.asarray(self._y)

    @property
    def n_samples(self):
        return len(self._y)

    def _models(self):
        return {
            "knn": lambda: KNeighborsClassifier(n_neighbors=3),
            "svm": lambda: LinearSVC(C=1.0, n_epochs=60, seed=self.seed),
        }

    def evaluate(self, train_fraction=0.2, model="knn", seed=None):
        """Train on a fraction of elements, test on the rest."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng(self.seed if seed is None else seed)
        n = self.n_samples
        idx = rng.permutation(n)
        n_train = max(2, int(round(train_fraction * n)))
        train_idx, test_idx = idx[:n_train], idx[n_train:]
        if len(test_idx) == 0:
            raise ValueError("train_fraction leaves no test elements")
        scaler = StandardScaler().fit(self._X[train_idx])
        clf = self._models()[model]()
        clf.fit(scaler.transform(self._X[train_idx]), self._y[train_idx])
        pred = clf.predict(scaler.transform(self._X[test_idx]))
        accuracy = float(np.mean(pred == self._y[test_idx]))
        return FIAccelerationResult(
            fraction=train_fraction,
            model_name=model,
            accuracy=accuracy,
            injections_used=n_train * self.n_trials_per_element,
            injections_full=n * self.n_trials_per_element,
        )

    def accuracy_vs_fraction(self, fractions=(0.1, 0.2, 0.4, 0.8), model="knn", n_repeats=3):
        """Mean accuracy at each training fraction (the [20] sweep)."""
        out = []
        for frac in fractions:
            accs = [
                self.evaluate(frac, model=model, seed=self.seed + 101 * r).accuracy
                for r in range(n_repeats)
            ]
            out.append((frac, float(np.mean(accs))))
        return out
