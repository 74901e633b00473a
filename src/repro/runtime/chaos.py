"""Deterministic chaos injection for the campaign harness itself.

This repo studies fault injection into *simulated* hardware; this
module injects faults into the *campaign harness*, so tests and CI can
prove the runner's fault-tolerance machinery (timeouts, retries, worker
respawn, resume) actually works.  :class:`ChaosWorker` wraps any runner
worker and, for a deterministically chosen subset of units, makes the
first ``fail_attempts`` execution attempts misbehave:

``"raise"``
    raise :class:`ChaosError` inside the worker (exercises the retry
    path — the unit's outcome comes back as an error);
``"exit"``
    kill the worker *process* with ``os._exit`` (exercises worker-death
    requeue and respawn; degraded to ``ChaosError`` when not running
    inside a worker, so a serial run is never killed);
``"hang"``
    sleep ``hang_s`` seconds (exercises the per-unit timeout path);
``"slow"``
    sleep ``slow_s`` seconds, then succeed (exercises ETA/throughput
    accounting under stragglers).

Determinism has two halves:

* **which units misbehave** is a pure function of ``(spec.seed, unit)``
  — each unit's fate is drawn from
  ``SeedSequence(entropy=spec.seed, spawn_key=(crc32(repr(unit)),))``,
  so the same campaign sees the same chaos on every run, in any
  process, at any ``jobs`` value;
* **when a unit stops misbehaving** is an attempt count persisted under
  ``state_dir`` (one file per unit, one byte appended per attempt), so
  "fail the first attempt, succeed on retry" holds across the process
  boundary — the retried attempt may run in a different worker, or in a
  resumed campaign entirely.

Because the wrapper only intercepts *execution*, cache digests and
workload seed streams are untouched: a chaos-ridden campaign that
survives its injections produces results bit-identical to a clean run.
That equivalence is the acceptance contract enforced by
``scripts/chaos_resume_check.py`` and the ``chaos-resume`` CI job.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ChaosError(RuntimeError):
    """The injected worker failure (never raised by real workloads)."""


@dataclass(frozen=True)
class ChaosSpec:
    """What fraction of units misbehave, and how.

    Rates are interpreted as a partition of ``[0, 1)``: a unit's fate
    draw ``u`` selects ``raise`` if ``u < raise_rate``, ``exit`` if it
    falls in the next ``exit_rate``-wide band, then ``hang``, then
    ``slow``; otherwise the unit is untouched.  The rates must sum to
    at most 1.
    """

    raise_rate: float = 0.0
    exit_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    hang_s: float = 30.0
    slow_s: float = 0.05
    fail_attempts: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("raise_rate", "exit_rate", "hang_rate", "slow_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.raise_rate + self.exit_rate + self.hang_rate + self.slow_rate > 1.0:
            raise ValueError("chaos rates must sum to at most 1")
        if self.fail_attempts < 0:
            raise ValueError("fail_attempts must be non-negative")

    def fate(self, unit):
        """``None`` or one of ``"raise"/"exit"/"hang"/"slow"`` for a unit."""
        tag = zlib.crc32(repr(unit).encode())
        stream = np.random.SeedSequence(entropy=self.seed, spawn_key=(tag,))
        u = np.random.default_rng(stream).random()
        for kind in ("raise", "exit", "hang", "slow"):
            band = getattr(self, f"{kind}_rate")
            if u < band:
                return kind
            u -= band
        return None


def _in_worker():
    """Whether this process is a worker (safe to ``os._exit``).

    Every tcp worker, forked or external, sets the ``REPRO_WORKER``
    environment flag before it dials the scheduler, so hard-exiting
    kills only the worker — never a scheduler or a test process.
    """
    return bool(os.environ.get("REPRO_WORKER"))


class ChaosWorker:
    """Picklable wrapper injecting :class:`ChaosSpec` faults into a worker.

    ``state_dir`` holds one attempt-counter file per unit so injected
    failures stop after ``spec.fail_attempts`` attempts even when
    retries land in fresh processes.  Wrap the real worker *after*
    deciding cache keys — chaos must never reach a digest.
    """

    def __init__(self, worker, spec, state_dir):
        self.worker = worker
        self.spec = spec
        self.state_dir = Path(state_dir)

    def _attempt(self, unit):
        """Record one attempt of ``unit``; returns its 0-based index."""
        tag = zlib.crc32(repr(unit).encode())
        path = self.state_dir / f"{tag:08x}.attempts"
        self.state_dir.mkdir(parents=True, exist_ok=True)
        try:
            seen = path.stat().st_size
        except OSError:
            seen = 0
        with open(path, "ab") as fh:
            fh.write(b".")
        return seen

    def __call__(self, unit):
        fate = self.spec.fate(unit)
        if fate is not None and self._attempt(unit) < self.spec.fail_attempts:
            if fate == "raise":
                raise ChaosError(f"injected failure for {unit!r}")
            if fate == "exit":
                if _in_worker():
                    os._exit(17)  # hard death: the scheduler sees EOF
                raise ChaosError(f"injected (serial-safe) death for {unit!r}")
            if fate == "hang":
                time.sleep(self.spec.hang_s)
                raise ChaosError(f"injected hang outlived its budget: {unit!r}")
            if fate == "slow":
                time.sleep(self.spec.slow_s)
        return self.worker(unit)
