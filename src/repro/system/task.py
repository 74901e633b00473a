"""Periodic real-time task model."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Task:
    """A periodic task.

    Attributes
    ----------
    name:
        Unique task name.
    wcet:
        Worst-case execution time (seconds) at the *nominal* (maximum)
        frequency; at frequency ``f`` the execution time is
        ``wcet * f_nom / f``.
    period:
        Release period (seconds); implicit deadline = period unless given.
    deadline:
        Relative deadline (seconds).
    criticality:
        0 = low, 1 = high (mixed-criticality hooks).
    vulnerability:
        Architectural vulnerability factor in [0, 1]: the fraction of raw
        soft errors that corrupt this task's output.
    """

    name: str
    wcet: float
    period: float
    deadline: float = None
    criticality: int = 0
    vulnerability: float = 0.5

    def __post_init__(self):
        if self.wcet <= 0 or self.period <= 0:
            raise ValueError("wcet and period must be positive")
        if self.deadline is None:
            self.deadline = self.period
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.wcet > self.period:
            raise ValueError(f"task {self.name}: wcet exceeds period")
        if not 0.0 <= self.vulnerability <= 1.0:
            raise ValueError("vulnerability must be in [0, 1]")

    @property
    def utilization(self):
        """CPU share at nominal frequency."""
        return self.wcet / self.period


@dataclass
class TaskSet:
    """An ordered collection of tasks."""

    tasks: list = field(default_factory=list)

    def __post_init__(self):
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ValueError("task names must be unique")

    def __iter__(self):
        return iter(self.tasks)

    def __len__(self):
        return len(self.tasks)

    def __getitem__(self, i):
        return self.tasks[i]

    @property
    def utilization(self):
        return sum(t.utilization for t in self.tasks)


def generate_task_set(
    n_tasks=8,
    total_utilization=0.6,
    period_range=(0.02, 0.2),
    seed=0,
    high_criticality_fraction=0.3,
):
    """Random task set with UUniFast-style utilization splitting."""
    if n_tasks < 1:
        raise ValueError("need at least one task")
    if not 0 < total_utilization <= n_tasks:
        raise ValueError("infeasible total utilization")
    rng = np.random.default_rng(seed)
    # UUniFast: unbiased utilization partition.
    utils = []
    remaining = total_utilization
    for i in range(n_tasks - 1):
        next_remaining = remaining * rng.random() ** (1.0 / (n_tasks - i - 1))
        utils.append(remaining - next_remaining)
        remaining = next_remaining
    utils.append(remaining)
    tasks = []
    for i, u in enumerate(utils):
        period = float(rng.uniform(*period_range))
        wcet = min(max(u, 1e-4) * period, 0.95 * period)
        tasks.append(
            Task(
                name=f"task{i}",
                wcet=wcet,
                period=period,
                criticality=int(rng.random() < high_criticality_fraction),
                vulnerability=float(rng.uniform(0.2, 0.9)),
            )
        )
    return TaskSet(tasks)
