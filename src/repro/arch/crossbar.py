"""Memristor-crossbar fault criticality and selective redundancy (ref [28]).

DNN weights mapped onto memristor crossbars suffer stuck-at faults.  Full
redundancy (a spare for every cell) is wasteful: [28] trained a small
neural network to predict, from fault features, whether a given fault is
*critical* to the DNN's accuracy (reported ~99 % accuracy), and by
protecting only critical faults cut the required redundancy by ~93 %.

Substrate: a numpy MLP classifier whose layer weights live on
:class:`Crossbar` arrays; stuck-at-0/1 faults overwrite cell conductances;
criticality ground truth comes from measuring the accuracy drop the fault
causes on a validation batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.metrics import accuracy_score
from repro.ml.mlp import MLPClassifier
from repro.ml.preprocessing import StandardScaler


class Crossbar:
    """One crossbar array holding a weight matrix as conductances.

    Conductances are clipped to ``[-g_max, g_max]``; stuck-at faults pin a
    cell to 0 (stuck-off) or ±g_max (stuck-on).
    """

    def __init__(self, weights, g_max=None):
        self.weights = np.array(weights, dtype=float)
        if self.weights.ndim != 2:
            raise ValueError("crossbar weights must be 2-D")
        self.g_max = float(g_max if g_max is not None else np.abs(self.weights).max() or 1.0)
        self.faults = {}  # (row, col) -> stuck value

    @property
    def shape(self):
        return self.weights.shape

    def inject_stuck_at(self, row, col, stuck_on):
        """Pin cell (row, col) to +/-g_max (stuck-on, keeping sign) or 0."""
        r, c = self.shape
        if not (0 <= row < r and 0 <= col < c):
            raise ValueError("fault coordinates out of range")
        if stuck_on:
            sign = np.sign(self.weights[row, col]) or 1.0
            self.faults[(row, col)] = sign * self.g_max
        else:
            self.faults[(row, col)] = 0.0

    def clear_faults(self):
        self.faults = {}

    def effective_weights(self):
        """Weight matrix with faults applied."""
        W = self.weights.copy()
        for (row, col), value in self.faults.items():
            W[row, col] = value
        return W

    def matvec(self, x):
        """Analog MVM through the (possibly faulty) crossbar."""
        return np.asarray(x, dtype=float) @ self.effective_weights()


@dataclass
class FaultDescriptor:
    """Features of one candidate fault for criticality prediction.

    ``delta_conductance`` (how far the stuck value moves the weight) and
    ``input_activity`` (mean |activation| of the presynaptic neuron,
    profiled once on a calibration batch) are the strongest predictors —
    the kind of profiling features [28] feeds its criticality network.
    """

    layer: int
    row: int
    col: int
    stuck_on: bool
    weight_value: float
    weight_magnitude_rank: float  # percentile of |w| within its layer
    fan_out: float  # downstream column count (proxy for influence)
    delta_conductance: float = 0.0
    input_activity: float = 0.0

    def feature_vector(self):
        return [
            float(self.layer),
            self.row,
            self.col,
            float(self.stuck_on),
            self.weight_value,
            abs(self.weight_value),
            self.weight_magnitude_rank,
            self.fan_out,
            self.delta_conductance,
            self.input_activity,
            self.delta_conductance * self.input_activity,
        ]


class CrossbarFaultStudy:
    """Criticality labelling, prediction, and selective-redundancy accounting.

    Parameters
    ----------
    model:
        A fitted :class:`repro.ml.mlp.MLPClassifier` (the "DNN").
    X_val / y_val:
        Validation batch used to measure each fault's accuracy impact.
    criticality_threshold:
        Accuracy drop (absolute) above which a fault is labelled critical.
    """

    def __init__(self, model, X_val, y_val, criticality_threshold=0.01):
        if model.weights_ is None:
            raise ValueError("model must be fitted")
        self.model = model
        self.X_val = np.asarray(X_val, dtype=float)
        self.y_val = np.asarray(y_val)
        self.threshold = criticality_threshold
        self.crossbars = [Crossbar(W) for W in model.weights_]
        self.baseline_accuracy = accuracy_score(self.y_val, model.predict(self.X_val))
        self._input_activity = self._profile_activity()

    def _profile_activity(self):
        """Mean |activation| feeding each layer, profiled on the val batch."""
        acts = self.model._forward(self.X_val)
        # acts[k] is the input to layer k's weight matrix.
        return [np.abs(a).mean(axis=0) for a in acts[:-1]]

    def _metrics_with_faults(self):
        """(accuracy, mean true-class softmax margin) under current faults."""
        original = [W.copy() for W in self.model.weights_]
        try:
            for layer, xbar in enumerate(self.crossbars):
                self.model.weights_[layer] = xbar.effective_weights()
            probs = self.model.predict_proba(self.X_val)
            pred = self.model.classes_[np.argmax(probs, axis=1)]
            acc = accuracy_score(self.y_val, pred)
            class_index = {c: i for i, c in enumerate(self.model.classes_)}
            true_cols = np.array([class_index[c] for c in self.y_val])
            margin = float(probs[np.arange(len(probs)), true_cols].mean())
            return acc, margin
        finally:
            for layer, W in enumerate(original):
                self.model.weights_[layer] = W

    def measure_fault(self, layer, row, col, stuck_on):
        """Ground-truth criticality of one fault (the expensive step).

        A fault is critical when it measurably damages the network: the
        validation accuracy drops by more than ``criticality_threshold``
        *or* the mean true-class confidence margin drops by more than the
        same threshold.  The margin term removes the label noise a small
        validation batch would otherwise add near the accuracy threshold.
        """
        if not hasattr(self, "_baseline_margin"):
            _, self._baseline_margin = self._metrics_with_faults()
        xbar = self.crossbars[layer]
        xbar.inject_stuck_at(row, col, stuck_on)
        acc, margin = self._metrics_with_faults()
        xbar.clear_faults()
        acc_drop = self.baseline_accuracy - acc
        margin_drop = self._baseline_margin - margin
        critical = acc_drop > self.threshold or margin_drop > self.threshold
        return max(acc_drop, margin_drop), critical

    def sample_faults(self, n_faults=300, seed=0):
        """Random fault descriptors with measured criticality labels."""
        rng = np.random.default_rng(seed)
        descriptors = []
        labels = []
        for _ in range(n_faults):
            layer = int(rng.integers(len(self.crossbars)))
            W = self.crossbars[layer].weights
            row = int(rng.integers(W.shape[0]))
            col = int(rng.integers(W.shape[1]))
            stuck_on = bool(rng.integers(2))
            rank = float(np.mean(np.abs(W) <= abs(W[row, col])))
            fan_out = float(W.shape[1])
            xbar = self.crossbars[layer]
            if stuck_on:
                stuck_value = (np.sign(W[row, col]) or 1.0) * xbar.g_max
            else:
                stuck_value = 0.0
            desc = FaultDescriptor(
                layer=layer,
                row=row,
                col=col,
                stuck_on=stuck_on,
                weight_value=float(W[row, col]),
                weight_magnitude_rank=rank,
                fan_out=fan_out,
                delta_conductance=float(abs(stuck_value - W[row, col])),
                input_activity=float(self._input_activity[layer][row]),
            )
            _, critical = self.measure_fault(layer, row, col, stuck_on)
            descriptors.append(desc)
            labels.append(int(critical))
        return descriptors, np.asarray(labels)

    def train_criticality_predictor(self, descriptors, labels, seed=0):
        """Small NN predicting fault criticality from descriptor features."""
        X = np.asarray([d.feature_vector() for d in descriptors])
        scaler = StandardScaler().fit(X)
        clf = MLPClassifier(hidden=(16,), n_epochs=250, lr=3e-3, seed=seed)
        clf.fit(scaler.transform(X), labels)

        def predictor(descs):
            Xq = np.asarray([d.feature_vector() for d in descs])
            return clf.predict(scaler.transform(Xq))

        return predictor, clf

    @staticmethod
    def redundancy_savings(labels_predicted):
        """Redundancy reduction from protecting only predicted-critical cells.

        Full protection needs one spare per (potentially faulty) cell;
        selective protection spares only predicted-critical ones.
        """
        labels_predicted = np.asarray(labels_predicted)
        if len(labels_predicted) == 0:
            raise ValueError("no predictions given")
        return 1.0 - labels_predicted.mean()
