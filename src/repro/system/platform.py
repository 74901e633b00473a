"""Discrete-time multicore platform simulator.

Each step of ``dt`` seconds:

1. a manager (RL or baseline) may retune knobs — per-core V-f levels,
   power states, or the task-to-core assignment;
2. each core executes its assigned tasks' due jobs; jobs that cannot
   finish within their deadline at the current speed are deadline misses;
3. soft errors strike busy cores at the voltage-dependent SER; a struck
   job fails functionally;
4. power is computed and the thermal RC network integrates;
5. metrics accumulate (energy, misses, failures, temperatures, cycles).

The simulator is deliberately coarse (job-level, not cycle-level): what
the managers learn from are the *couplings* — DVFS ↔ SER ↔ execution
time ↔ temperature ↔ lifetime — which the step loop preserves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.system.power import total_power
from repro.system.reliability_models import combined_mttf
from repro.system.scheduler import load_per_core
from repro.system.ser import soft_error_rate
from repro.system.thermal import ThermalModel


@dataclass
class SimulationMetrics:
    """Accumulated results of one simulated mission window."""

    sim_time: float = 0.0
    energy_j: float = 0.0
    jobs_released: int = 0
    deadline_misses: int = 0
    soft_failures: int = 0
    peak_temperature_c: float = 0.0
    mean_temperature_c: float = 0.0
    mean_cycle_amplitude_k: float = 0.0
    mttf_years: float = 0.0

    @property
    def deadline_hit_rate(self):
        if self.jobs_released == 0:
            return 1.0
        return 1.0 - self.deadline_misses / self.jobs_released

    @property
    def functional_reliability(self):
        if self.jobs_released == 0:
            return 1.0
        return 1.0 - self.soft_failures / self.jobs_released


class Platform:
    """Cores + tasks + thermal network, stepped in dt increments."""

    def __init__(self, cores, task_set, assignment, dt=0.05, seed=0, ambient_c=40.0):
        self.cores = list(cores)
        self.task_set = task_set
        self.assignment = dict(assignment)
        self.dt = dt
        self.rng = np.random.default_rng(seed)
        self.thermal = ThermalModel(len(self.cores), ambient_c=ambient_c)
        self.time = 0.0
        self.metrics = SimulationMetrics()
        self._next_release = {t.name: 0.0 for t in task_set}

    def remap(self, assignment):
        """Install a new task-to-core assignment (migration knob)."""
        self.assignment = dict(assignment)

    def _release_jobs(self):
        """Jobs whose release time falls inside the current step."""
        due = []
        for task in self.task_set:
            while self._next_release[task.name] < self.time + self.dt:
                due.append(task)
                self._next_release[task.name] += task.period
        return due

    def step(self):
        """Advance the platform by one dt."""
        due_jobs = self._release_jobs()
        busy_time = np.zeros(len(self.cores))
        for task in due_jobs:
            self.metrics.jobs_released += 1
            core_idx = self.assignment[task.name]
            core = self.cores[core_idx]
            exec_time = core.scaled_wcet(task)
            if exec_time > task.deadline or not np.isfinite(exec_time):
                self.metrics.deadline_misses += 1
                exec_time = min(task.deadline, self.dt) if np.isfinite(exec_time) else 0.0
            else:
                # Soft error during the exposure window?
                rate = (
                    soft_error_rate(core.vf.voltage)
                    * core.vulnerability_factor
                    * task.vulnerability
                )
                if self.rng.random() < 1.0 - np.exp(-rate * exec_time):
                    self.metrics.soft_failures += 1
            busy_time[core_idx] += exec_time

        powers = []
        for idx, core in enumerate(self.cores):
            core.utilization = float(np.clip(busy_time[idx] / self.dt, 0.0, 1.0))
            core.temperature_c = float(self.thermal.temperatures[idx])
            powers.append(total_power(core))
        self.thermal.step(powers, self.dt)
        for idx, core in enumerate(self.cores):
            core.temperature_c = float(self.thermal.temperatures[idx])
        self.metrics.energy_j += float(np.sum(powers)) * self.dt
        self.time += self.dt
        self.metrics.sim_time = self.time

    def run(self, duration, manager=None, control_period=None):
        """Simulate ``duration`` seconds; the manager acts every control period."""
        control_period = control_period or (10 * self.dt)
        next_control = 0.0
        manager_name = type(manager).__name__ if manager is not None else "none"
        steps = 0
        with obs.span("system.platform.run", manager=manager_name):
            while self.time < duration:
                if manager is not None and self.time >= next_control:
                    manager.control(self)
                    obs.inc("system.managers.control_epochs")
                    next_control += control_period
                self.step()
                steps += 1
            self.finalize()
        obs.inc("system.platform.steps", steps)
        return self.metrics

    def finalize(self):
        """Fill in the derived lifetime/thermal metrics."""
        self.metrics.peak_temperature_c = self.thermal.peak_temperature()
        self.metrics.mean_temperature_c = self.thermal.mean_temperature()
        self.metrics.mean_cycle_amplitude_k = self.thermal.mean_cycle_amplitude()
        mttfs = []
        for idx, core in enumerate(self.cores):
            amp = self.thermal.mean_cycle_amplitude(idx)
            mttfs.append(
                float(
                    combined_mttf(
                        temperature_c=self.metrics.mean_temperature_c,
                        voltage=core.vf.voltage,
                        current_density=core.vf.voltage * core.vf.frequency / 2.2,
                        cycle_amplitude_k=max(amp, 0.5),
                        duty_cycle=0.5,
                        activity=core.utilization * 0.4 + 0.05,
                    )
                )
            )
        from repro.system.mttf import system_mttf

        self.metrics.mttf_years = system_mttf(mttfs)
