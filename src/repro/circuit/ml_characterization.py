"""ML-based on-the-fly cell-library characterization (Fig. 3 lower flow).

The per-instance corner idea ("characterize each cell instance in the
circuit under the impact of its corresponding SHE temperature") yields
thousands of cells — infeasible with SPICE but fast with an ML model that
maps (cell descriptor, slew, load, temperature, delta-Vth) to delay
(ref [9]).  The model is trained once per technology from a modest sample
of SPICE-like characterizations, then generates circuit-specific corner
libraries "within seconds".
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.circuit.cell import LookupTable, TimingArc
from repro.circuit.characterization import SpiceLikeCharacterizer
from repro.ml.mlp import MLPRegressor
from repro.ml.preprocessing import StandardScaler


def _cell_features(cell):
    """Structural descriptor of a cell, independent of operating condition."""
    ref = cell.transistors[0]
    return [
        ref.width_nm / 100.0,
        np.log(ref.width_nm / 100.0),
        float(ref.n_fins),
        float(len(cell.inputs)),
        float(cell.stack_depth),
        cell.input_cap_ff,
        float(cell.n_transistors),
    ]


def _condition_features(slew, load, temperature_c, delta_vth):
    """Operating-condition features, with log transforms for the decades-wide
    slew/load axes (keeps the regression smooth across the NLDM grid)."""
    return [
        slew,
        np.log(slew),
        load,
        np.log(load),
        temperature_c,
        delta_vth,
    ]


class MLCharacterizer:
    """Learned replacement for SPICE-based cell characterization.

    Parameters
    ----------
    oracle:
        The :class:`SpiceLikeCharacterizer` used to produce training
        labels (stands in for the foundry's SPICE flow).
    model_factory:
        Zero-argument callable returning a fresh regressor with
        ``fit``/``predict``; defaults to an MLP regressor on log-delay.
    """

    def __init__(self, oracle=None, model_factory=None, seed=0):
        self.oracle = oracle or SpiceLikeCharacterizer()
        self.model_factory = model_factory or (
            lambda: MLPRegressor(
                hidden=(96, 96), lr=3e-3, n_epochs=500, batch_size=64, seed=seed
            )
        )
        self.seed = seed
        self._scaler = None
        self._model = None
        self.training_points_ = 0

    # -- training -------------------------------------------------------------
    def _sample_conditions(self, n_samples, rng):
        slews = rng.uniform(5.0, 160.0, n_samples)
        loads = rng.uniform(1.0, 32.0, n_samples)
        temps = rng.uniform(25.0, 150.0, n_samples)
        dvth = rng.uniform(0.0, 0.06, n_samples)
        return slews, loads, temps, dvth

    def fit(self, library, n_samples=1500):
        """Train on random (cell, condition) pairs labelled by the oracle."""
        with obs.span("circuit.ml_char.label"):
            cells = list(library)
            if not cells:
                raise ValueError("library is empty")
            rng = np.random.default_rng(self.seed)
            slews, loads, temps, dvth = self._sample_conditions(n_samples, rng)
            X = []
            y = []
            for i in range(n_samples):
                cell = cells[rng.integers(len(cells))]
                delay = self.oracle.arc_delay(
                    cell,
                    slews[i],
                    loads[i],
                    temperature_c=temps[i],
                    vdd=library.vdd,
                    delta_vth=dvth[i],
                )
                X.append(
                    _cell_features(cell)
                    + _condition_features(slews[i], loads[i], temps[i], dvth[i])
                )
                y.append(delay)
            X = np.asarray(X)
            y = np.asarray(y)
            self._scaler = StandardScaler().fit(X)
            self._model = self.model_factory()
            # Learn log-delay: delays span decades across strengths/loads.
            with obs.span("ml.mlp.fit", rows=len(X)):
                self._model.fit(self._scaler.transform(X), np.log(y))
        self.training_points_ = n_samples
        return self

    # -- inference ------------------------------------------------------------
    def predict_delay(self, cell, slew, load, temperature_c=25.0, delta_vth=0.0):
        """Predicted arc delay (ps) for one condition."""
        if self._model is None:
            raise RuntimeError("MLCharacterizer is not fitted")
        x = np.asarray(
            [_cell_features(cell) + _condition_features(slew, load, temperature_c, delta_vth)]
        )
        return float(np.exp(self._model.predict(self._scaler.transform(x))[0]))

    def _predict_grid(self, cell, slews, loads, temperature_c, delta_vth):
        if self._model is None:
            raise RuntimeError("MLCharacterizer is not fitted")
        rows = []
        for s in slews:
            for c in loads:
                rows.append(
                    _cell_features(cell) + _condition_features(s, c, temperature_c, delta_vth)
                )
        pred = np.exp(self._model.predict(self._scaler.transform(np.asarray(rows))))
        return pred.reshape(len(slews), len(loads))

    def characterize_cell(
        self, cell, temperature_c=25.0, delta_vth=0.0, slews=None, loads=None
    ):
        """Fill a cell's arcs with ML-predicted tables (no oracle calls)."""
        slews = tuple(slews or self.oracle.slews)
        loads = tuple(loads or self.oracle.loads)
        grid = self._predict_grid(cell, slews, loads, temperature_c, delta_vth)
        cell.arcs = []
        for pin in cell.inputs:
            slew_grid = 0.9 * grid + 0.08 * np.asarray(slews)[:, None]
            cell.arcs.append(
                TimingArc(
                    input_pin=pin,
                    output_pin=cell.output,
                    delay=LookupTable(slews, loads, grid),
                    output_slew=LookupTable(slews, loads, slew_grid),
                )
            )
        return cell

    def generate_instance_library(
        self,
        netlist,
        base_library,
        instance_temperature,
        instance_delta_vth=None,
        name=None,
    ):
        """Per-instance corner cells for a whole netlist in one shot.

        Parameters
        ----------
        instance_temperature:
            Mapping instance name -> channel temperature (chip temperature
            plus its SHE dT from :class:`repro.circuit.she_flow.SheFlow`).
        instance_delta_vth:
            Optional mapping instance name -> aging shift.

        Returns
        -------
        (library, resolver):
            ``library`` holds one characterized cell per instance (named
            ``"<cell>@<instance>"``); ``resolver`` plugs directly into
            :class:`repro.circuit.sta.StaticTimingAnalysis`.
        """
        with obs.span("circuit.ml_char.generate"):
            instance_delta_vth = instance_delta_vth or {}
            lib = base_library.clone_empty(name=name or f"{base_library.name}_per_instance")
            mapping = {}
            for inst in netlist:
                base_cell = base_library.get(inst.cell_name)
                per_inst = base_cell.clone_uncharacterized(
                    name=f"{inst.cell_name}@{inst.name}"
                )
                self.characterize_cell(
                    per_inst,
                    temperature_c=instance_temperature.get(inst.name, base_library.temperature_c),
                    delta_vth=instance_delta_vth.get(inst.name, base_library.delta_vth),
                )
                lib.add(per_inst)
                mapping[inst.name] = per_inst

            def resolver(instance):
                return mapping[instance.name]

            return lib, resolver

    def validate(self, library, n_samples=300, seed=1):
        """Mean absolute percentage error vs the oracle on held-out points."""
        with obs.span("circuit.ml_char.validate"):
            cells = list(library)
            rng = np.random.default_rng(seed)
            slews, loads, temps, dvth = self._sample_conditions(n_samples, rng)
            errors = []
            for i in range(n_samples):
                cell = cells[rng.integers(len(cells))]
                truth = self.oracle.arc_delay(
                    cell, slews[i], loads[i],
                    temperature_c=temps[i], vdd=library.vdd, delta_vth=dvth[i],
                )
                pred = self.predict_delay(
                    cell, slews[i], loads[i], temperature_c=temps[i], delta_vth=dvth[i]
                )
                errors.append(abs(pred - truth) / truth)
            return float(np.mean(errors))
