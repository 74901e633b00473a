"""Fault-tolerance policy for campaign execution.

The paper's Sec. V argument — checkpoint/rollback so long-running work
survives transient errors — applies to this library's own campaign
harness: a 100k-trial fault-injection run must not die because one
worker crashed, hung, or got OOM-killed.  :class:`FaultPolicy` is the
single knob object describing how :class:`~repro.runtime.runner.
CampaignRunner` reacts to unit failures:

* **bounded retries** — a unit whose worker raises (or whose process
  dies) is re-executed up to ``max_retries`` times before the error
  propagates;
* **per-unit wall-clock timeouts** — on the tcp path, a unit running
  longer than ``unit_timeout_s`` after a worker claimed it is declared
  hung, the local worker holding it is killed and replaced, and the
  unit is retried (timeouts cannot preempt the serial path — there is
  nothing to kill — so they apply to workers only);
* **bounded requeues** — a worker that dies (segfault, OOM kill) is
  replaced and the units it held are requeued without penalty, up to
  ``max_requeues`` losses per unit;
* **exponential backoff with deterministic jitter** — attempt ``k`` of
  unit ``i`` waits ``backoff_base_s * backoff_factor**(k-1)`` seconds,
  scaled by a jitter factor drawn from the *documented child seed
  stream* below.

Retry determinism contract
--------------------------
Retrying never reseeds the **workload**: trial ``i`` always draws from
``SeedSequence(entropy=seed, spawn_key=(i,))`` (see
:mod:`repro.runtime.seeding`) no matter how many attempts its unit
needed, so a campaign that suffered crashes, hangs, and retries
produces results bit-identical to an undisturbed run.  What *is*
reseeded per attempt is the backoff jitter, from the child stream

    ``SeedSequence(entropy=jitter_seed, spawn_key=(unit_index, attempt))``

which makes the retry *schedule* a pure function of the retry trace
(which units failed, how many times) — reproducible in tests and CI,
uncorrelated across units so retried units do not thundering-herd.
See ``docs/campaigns.md`` ("Fault tolerance & resume").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Spawn-key namespace for retry-jitter streams, disjoint from trial
#: streams (which use ``spawn_key=(i,)``) by arity: jitter streams use
#: ``spawn_key=(unit_index, attempt)`` and therefore can never collide
#: with any trial stream of any campaign.
JITTER_STREAM_DOC = "SeedSequence(entropy=jitter_seed, spawn_key=(unit_index, attempt))"


@dataclass(frozen=True)
class FaultPolicy:
    """How the runner reacts to unit failures, hangs, and dead workers.

    Parameters
    ----------
    unit_timeout_s:
        Wall-clock budget per unit, counted from the moment a worker
        claims it; ``None`` (default) disables hang detection.  A
        timed-out unit counts against its retry budget.
    max_retries:
        Re-executions of one unit after its first failure before the
        original error is re-raised.  ``0`` fails fast.
    backoff_base_s / backoff_factor / backoff_jitter:
        Attempt ``k`` (1-based) of unit ``i`` is delayed by
        ``backoff_base_s * backoff_factor**(k-1) * u`` where ``u`` is
        uniform in ``[1 - backoff_jitter, 1 + backoff_jitter]`` drawn
        from the documented jitter stream (see module docstring).
    jitter_seed:
        Entropy root of the jitter streams.  Fixed by default so retry
        schedules are reproducible given the retry trace.
    max_requeues:
        Times one unit may be *requeued* (lost through no fault of its
        own: its worker died around it, disconnected, or stopped
        heartbeating) before the loss is treated as a failure
        and charged against the retry budget.  Innocent losses normally
        carry no penalty, but a unit that deterministically kills its
        worker produces requeues, not errors — without a cap it would
        requeue-and-respawn forever.  The default is generous (ordinary
        worker churn requeues each unit once or twice); repeated
        requeues of one unit also back off like retries do.  ``None``
        disables the cap.
    poll_interval_s:
        Scheduler tick used to check in-flight units against their
        deadlines; only relevant when ``unit_timeout_s`` is set.
    target_task_s:
        Adaptive task-sizing goal: the scheduler groups units into one
        transport task until the group's estimated wall time (from the
        observed per-unit latency EMA) reaches this budget.  Grouping
        amortizes per-task transport overhead without affecting seeds,
        digests, or results.
    max_units_per_task:
        Hard cap on adaptive grouping; also the scale factor of the
        scheduler's admission window.  When ``unit_timeout_s`` is set,
        grouping is pinned to one unit per task so the per-unit deadline
        stays meaningful.
    lease_timeout_s:
        Remote-worker lease budget per unit: once a tcp worker claims a
        task, it must report within ``lease_timeout_s * len(task)``
        seconds or the scheduler voids the lease and re-dispatches the
        units (the timeout counts against each unit's retry budget).  ``None``
        falls back to ``unit_timeout_s``; if both are ``None``, leases
        never expire (a lost worker is then only recovered by
        killing + resuming the campaign).
    """

    unit_timeout_s: float = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1
    jitter_seed: int = 0
    max_requeues: int = 16
    poll_interval_s: float = 0.1
    target_task_s: float = 0.2
    max_units_per_task: int = 64
    lease_timeout_s: float = None

    def __post_init__(self):
        if self.unit_timeout_s is not None and self.unit_timeout_s <= 0:
            raise ValueError("unit_timeout_s must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError("backoff_jitter must be in [0, 1)")
        if self.max_requeues is not None and self.max_requeues < 1:
            raise ValueError("max_requeues must be positive (or None)")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.target_task_s <= 0:
            raise ValueError("target_task_s must be positive")
        if self.max_units_per_task < 1:
            raise ValueError("max_units_per_task must be positive")
        if self.lease_timeout_s is not None and self.lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive (or None)")

    def jitter_factor(self, unit_index, attempt):
        """The deterministic jitter multiplier for one (unit, attempt)."""
        stream = np.random.SeedSequence(
            entropy=self.jitter_seed, spawn_key=(int(unit_index), int(attempt))
        )
        u = np.random.default_rng(stream).random()
        return 1.0 + self.backoff_jitter * (2.0 * u - 1.0)

    def backoff_s(self, unit_index, attempt):
        """Delay before attempt ``attempt`` (1-based) of unit ``unit_index``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        return base * self.jitter_factor(unit_index, attempt)


#: Policy used when a runner is constructed without one: bounded
#: retries and requeues on, hang detection off (timeouts need an
#: explicit budget only the caller can know).
DEFAULT_FAULT_POLICY = FaultPolicy()

#: Fail-fast policy: any unit failure propagates immediately.  Useful in
#: tests asserting error paths.
FAIL_FAST_POLICY = FaultPolicy(max_retries=0)
