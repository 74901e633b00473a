"""SPICE-like standard-cell characterization.

Stands in for the transistor-level simulation a foundry flow would run
(Sec. II, Fig. 3).  For each timing arc and each (input slew, output load)
grid point it evaluates the analytic device models of
:mod:`repro.transistor` — including the PVT+aging corner — and fills NLDM
lookup tables.  A per-evaluation cost counter models the fact that real
SPICE characterization is the expensive step the ML flow amortizes away.

The same class also implements the *SHE characterization* of the Fig. 3
upper flow: instead of measuring delays, it measures each arc's
self-heating temperature and stores it in the delay slot of the library
("the obtained SHE temperatures are copied into the cell library,
replacing the cell's delay information").
"""

from __future__ import annotations

import numpy as np

from repro.circuit.cell import LookupTable, TimingArc
from repro.transistor.device import Transistor, alpha_power_delay
from repro.transistor.self_heating import SelfHeatingModel

DEFAULT_SLEWS = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)  # ps
DEFAULT_LOADS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)  # fF


class SpiceLikeCharacterizer:
    """Characterize cells into NLDM tables using the device models.

    Parameters
    ----------
    slews / loads:
        Characterization grid axes.
    she_model:
        Self-heating model used for SHE characterization and for the
        optional SHE-in-the-loop delay characterization.
    cost_per_point:
        Abstract "SPICE seconds" per simulated grid point, used by the
        benchmarks to compare against ML characterization cost.
    """

    def __init__(
        self,
        slews=DEFAULT_SLEWS,
        loads=DEFAULT_LOADS,
        she_model=None,
        cost_per_point=1.0,
    ):
        self.slews = tuple(slews)
        self.loads = tuple(loads)
        self.she_model = she_model or SelfHeatingModel()
        self.cost_per_point = cost_per_point
        self.simulated_points = 0

    # -- single-point "SPICE" evaluations ------------------------------------
    def arc_delay(
        self,
        cell,
        input_slew,
        load,
        temperature_c=25.0,
        vdd=0.8,
        delta_vth=0.0,
        include_she=False,
        activity=1.0,
    ):
        """Propagation delay (ps) of a cell under one operating condition.

        The cell's switching path is modelled as its worst-stack device
        driving ``load`` plus a slew-dependent penalty.  When
        ``include_she`` is set, the device's own self-heating raises its
        channel temperature before the delay is evaluated — the feedback
        the Fig. 3 flow exposes.
        """
        self.simulated_points += 1
        ref = cell.transistors[0]
        device = Transistor(
            width_nm=ref.width_nm,
            n_fins=ref.n_fins,
            vth=min(ref.vth + delta_vth, vdd - 0.05),
            is_pmos=ref.is_pmos,
        )
        channel_temp = temperature_c
        if include_she:
            channel_temp += self.she_model.delta_t(
                device, input_slew, load, activity=activity, vdd=vdd
            )
        effective_load = load + 0.6 * cell.input_cap_ff  # self-loading parasitics
        base = alpha_power_delay(
            device, effective_load, vdd=vdd, temperature_c=channel_temp
        )
        stack_penalty = 1.0 + 0.35 * (cell.stack_depth - 1)
        slew_penalty = 1.0 + 0.004 * input_slew
        return base * stack_penalty * slew_penalty

    def arc_she_temperature(self, cell, input_slew, load, vdd=0.8, activity=1.0):
        """Maximum self-heating dT (K) across the cell's devices for one arc."""
        self.simulated_points += 1
        return self.she_model.cell_delta_t(
            cell.transistors, input_slew, load, activity=activity, vdd=vdd
        )

    # -- full-cell characterization ------------------------------------------
    def characterize_cell(
        self, cell, temperature_c=25.0, vdd=0.8, delta_vth=0.0, include_she=False
    ):
        """Fill the cell's timing arcs with delay/slew NLDM tables (in place)."""
        cell.arcs = []
        n_s, n_l = len(self.slews), len(self.loads)
        for pin in cell.inputs:
            delays = np.zeros((n_s, n_l))
            slews_out = np.zeros((n_s, n_l))
            for i, s in enumerate(self.slews):
                for j, c in enumerate(self.loads):
                    delays[i, j] = self.arc_delay(
                        cell, s, c,
                        temperature_c=temperature_c, vdd=vdd,
                        delta_vth=delta_vth, include_she=include_she,
                    )
                    slews_out[i, j] = 0.9 * delays[i, j] + 0.08 * s
            cell.arcs.append(
                TimingArc(
                    input_pin=pin,
                    output_pin=cell.output,
                    delay=LookupTable(self.slews, self.loads, delays),
                    output_slew=LookupTable(self.slews, self.loads, slews_out),
                )
            )
        return cell

    def characterize_cell_she(self, cell, vdd=0.8, activity=1.0):
        """Fill the cell's arcs with SHE *temperature* tables in the delay slot.

        This is the Fig. 3 upper-flow trick: downstream STA then reports
        per-instance maximum SHE temperatures instead of delays.  Output
        "slew" tables propagate the input slew unchanged so the lookup
        conditions stay consistent during traversal.
        """
        cell.arcs = []
        n_s, n_l = len(self.slews), len(self.loads)
        for pin in cell.inputs:
            temps = np.zeros((n_s, n_l))
            slews_out = np.zeros((n_s, n_l))
            for i, s in enumerate(self.slews):
                for j, c in enumerate(self.loads):
                    temps[i, j] = self.arc_she_temperature(
                        cell, s, c, vdd=vdd, activity=activity
                    )
                    slews_out[i, j] = s  # pass-through; see docstring
            cell.arcs.append(
                TimingArc(
                    input_pin=pin,
                    output_pin=cell.output,
                    delay=LookupTable(self.slews, self.loads, temps),
                    output_slew=LookupTable(self.slews, self.loads, slews_out),
                )
            )
        return cell

    def characterize_library(self, library, include_she=False):
        """Characterize every cell in a library at the library's corner."""
        for cell in library:
            self.characterize_cell(
                cell,
                temperature_c=library.temperature_c,
                vdd=library.vdd,
                delta_vth=library.delta_vth,
                include_she=include_she,
            )
        return library

    @property
    def spice_cost(self):
        """Accumulated abstract simulation cost (for flow-cost comparisons)."""
        return self.simulated_points * self.cost_per_point
