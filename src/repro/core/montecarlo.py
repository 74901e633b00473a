"""Monte Carlo study regenerating Fig. 5 and Fig. 6 (Sec. V-D).

For each error-probability level the study performs ``n_runs`` Monte
Carlo simulations (the paper uses 100) of the segmented workload under
the checkpoint/rollback system and each budget policy, and averages

* the number of rollbacks per segment (Fig. 5), and
* the deadline hit rate per policy (Fig. 6).

The *error-rate wall* — the narrow band of error probability where hit
rates collapse from ~1 to ~0 — is located by
:meth:`MonteCarloStudy.find_wall`.

Each error-probability level is an independent, internally seeded unit
of work, so :meth:`MonteCarloStudy.sweep` can fan levels out over the
shared runtime layer (:mod:`repro.runtime`) with ``jobs``/``cache``
arguments while staying bit-identical to the serial sweep.  See
``docs/campaigns.md``.

Within a level, studies whose policies are all frozen (stateless)
budget policies dispatch to the batched numpy kernels
(:func:`~repro.core.cycle_noise.simulate_runs_batch` and friends),
which replace the ``n_runs x n_segments`` nest of scalar RNG calls
with a handful of matrix operations; stateful learned policies keep
the scalar reference path, which observes segments in order.  The
``kernel`` argument (``"auto"``/``"batched"``/``"scalar"``) and the
CLI's ``--reference-kernel`` control the dispatch; see
``docs/performance.md`` for the design and the equivalence contract.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field, is_dataclass, asdict

import numpy as np

from repro import obs
from repro.core.checkpoint import CheckpointSystem
from repro.core.cycle_noise import ALL_POLICIES, simulate_run, simulate_runs_batch
from repro.runtime import CampaignRunner

DEFAULT_ERROR_PROBS = tuple(float(p) for p in np.logspace(-8, -3, 11))

#: Kernel selection for :class:`MonteCarloStudy`: ``"auto"`` dispatches
#: each level to the batched numpy kernels when every policy is a frozen
#: (stateless) dataclass and falls back to the scalar reference path
#: otherwise; ``"scalar"`` forces the reference path (the CLI's
#: ``--reference-kernel``); ``"batched"`` demands the batched path and
#: errors on stateful policies.  See ``docs/performance.md``.
KERNELS = ("auto", "batched", "scalar")


@dataclass
class SweepPoint:
    """Aggregated results at one error-probability level."""

    error_probability: float
    mean_rollbacks_per_segment: float
    hit_rate: dict = field(default_factory=dict)  # policy name -> rate
    mean_energy: dict = field(default_factory=dict)  # policy name -> energy


@dataclass
class ErrorRateWall:
    """The located error-rate wall for one policy."""

    policy: str
    last_safe_p: float  # highest p with hit rate >= hi_threshold
    first_failed_p: float  # lowest p with hit rate <= lo_threshold


class MonteCarloStudy:
    """Sweep error probability with Monte Carlo runs (Figs. 5-6)."""

    def __init__(
        self,
        workload,
        policies=ALL_POLICIES,
        n_runs=100,
        seed=0,
        checkpoint_cycles=100,
        rollback_cycles=48,
        include_routine_errors=False,
        kernel="auto",
    ):
        if n_runs < 1:
            raise ValueError("need at least one run")
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        self.workload = workload
        self.policies = tuple(policies)
        self.n_runs = n_runs
        self.seed = seed
        self.checkpoint_cycles = checkpoint_cycles
        self.rollback_cycles = rollback_cycles
        self.include_routine_errors = include_routine_errors
        self.kernel = kernel
        self.last_sweep_stats = None  # RunStats of the most recent sweep

    def _checkpoint_system(self, error_probability):
        """The study's fully configured checkpoint/rollback system at ``p``."""
        return CheckpointSystem(
            error_probability,
            checkpoint_cycles=self.checkpoint_cycles,
            rollback_cycles=self.rollback_cycles,
            include_routine_errors=self.include_routine_errors,
        )

    def _policies_batchable(self):
        """Whether every policy qualifies for the batched kernels.

        Frozen :class:`~repro.core.cycle_noise.BudgetPolicy`-style
        dataclasses budget a whole segment vector deterministically;
        anything stateful (an ``observe`` hook) or non-frozen must
        observe segments in execution order and takes the scalar path.
        """
        return all(
            is_dataclass(policy)
            and getattr(policy, "__dataclass_params__").frozen
            and not hasattr(policy, "observe")
            for policy in self.policies
        )

    def _resolved_kernel(self):
        """The kernel a level will actually run: ``"batched"``/``"scalar"``."""
        if self.kernel == "scalar":
            return "scalar"
        if self._policies_batchable():
            return "batched"
        if self.kernel == "batched":
            raise ValueError(
                "kernel='batched' requires stateless frozen budget policies; "
                "this study's policies need the scalar path"
            )
        return "scalar"

    def run_level(self, error_probability):
        """Monte Carlo at one error-probability level."""
        with obs.span("core.montecarlo.level", p=error_probability):
            return self._run_level(error_probability)

    def _run_level(self, error_probability):
        kernel = self._resolved_kernel()
        # Bulk, O(1)-per-level accounting: one increment per counter per
        # level, never per MC run or per segment sample.  segment_samples
        # is the full rollback-matrix size; the scalar path may draw
        # fewer when runs early-exit past the wall.
        obs.inc("core.montecarlo.levels")
        obs.inc(f"core.montecarlo.kernel.{kernel}")
        obs.inc("core.montecarlo.mc_runs", self.n_runs * (1 + len(self.policies)))
        obs.inc(
            "core.montecarlo.segment_samples",
            self.n_runs * len(self.workload) * (1 + len(self.policies)),
        )
        cp = self._checkpoint_system(error_probability)
        if kernel == "batched":
            return self._run_level_batched(cp, error_probability)
        return self._run_level_scalar(cp, error_probability)

    def _run_level_scalar(self, cp, error_probability):
        """Scalar reference kernel: one RNG draw per segment execution."""
        # Fig. 5 statistic: sampled directly (runs may early-exit past the
        # wall, which would truncate their rollback counts).
        rb_rng = np.random.default_rng(self.seed + 1)
        rollbacks = []
        for _ in range(self.n_runs):
            total = sum(
                cp.sample_segment(c, rb_rng)[0] for c in self.workload
            )
            rollbacks.append(total / len(self.workload))
        hits = {policy.name: 0 for policy in self.policies}
        energies = {policy.name: [] for policy in self.policies}
        for policy in self.policies:
            rng = np.random.default_rng(self.seed + _policy_tag(policy))
            for _ in range(self.n_runs):
                run = simulate_run(self.workload, cp, policy, rng)
                hits[policy.name] += int(run.deadline_met)
                energies[policy.name].append(run.energy)
        return SweepPoint(
            error_probability=error_probability,
            mean_rollbacks_per_segment=float(np.mean(rollbacks)),
            hit_rate={k: v / self.n_runs for k, v in hits.items()},
            mean_energy={k: float(np.mean(v)) for k, v in energies.items()},
        )

    def _run_level_batched(self, cp, error_probability):
        """Batched kernel: one rollback matrix per statistic/policy.

        Seeding matches the scalar path (``seed + 1`` for the Fig. 5
        matrix, ``seed + crc32(policy)`` per policy), and each matrix is
        drawn run-major, so the Fig. 5 stream is draw-for-draw the
        scalar one; the per-policy streams assign the same draws to
        different runs once any scalar run early-exits (equivalent in
        distribution, not bit-identical — see ``docs/performance.md``).
        """
        rb_rng = np.random.default_rng(self.seed + 1)
        n_rb, _ = cp.sample_segments_batch(
            self.workload.segment_cycles, rb_rng, self.n_runs
        )
        mean_rollbacks = float(np.mean(n_rb.sum(axis=1) / len(self.workload)))
        hit_rate = {}
        mean_energy = {}
        for policy in self.policies:
            rng = np.random.default_rng(self.seed + _policy_tag(policy))
            batch = simulate_runs_batch(
                self.workload, cp, policy, rng, self.n_runs
            )
            hit_rate[policy.name] = float(np.mean(batch.deadline_met))
            mean_energy[policy.name] = float(np.mean(batch.energies))
        return SweepPoint(
            error_probability=error_probability,
            mean_rollbacks_per_segment=mean_rollbacks,
            hit_rate=hit_rate,
            mean_energy=mean_energy,
        )

    def _fingerprint(self):
        """Cache key for sweep levels, or ``None`` if the study is stateful.

        Learned/stateful policy objects (anything that is not a frozen
        :class:`~repro.core.cycle_noise.BudgetPolicy` dataclass) carry
        state a content digest cannot see — and they *learn in place*
        across levels, so their sweeps are order-dependent.  Such studies
        are neither memoized nor parallelized.
        """
        policies = []
        for policy in self.policies:
            if not (is_dataclass(policy) and getattr(policy, "__dataclass_params__").frozen):
                return None
            policies.append({"type": type(policy).__name__, **asdict(policy)})
        return {
            "workload": {
                "name": self.workload.name,
                "segment_cycles": list(self.workload.segment_cycles),
                "deadline_slack": self.workload.deadline_slack,
            },
            "policies": policies,
            "n_runs": self.n_runs,
            "seed": self.seed,
            "checkpoint_cycles": self.checkpoint_cycles,
            "rollback_cycles": self.rollback_cycles,
            "include_routine_errors": self.include_routine_errors,
            # Sampled statistics differ (in distribution-equivalent ways)
            # between kernels, so cached levels must not cross kernels.
            "kernel": self._resolved_kernel(),
        }

    def sweep(self, error_probabilities=DEFAULT_ERROR_PROBS, jobs=1, cache=None,
              progress=None, policy=None, resume=False, transport=None,
              transport_options=None):
        """Fig. 5 + Fig. 6 data: one :class:`SweepPoint` per level.

        Levels are independent and internally seeded, so ``jobs > 1``
        fans them out over worker processes with results bit-identical to
        the serial sweep.  ``cache`` memoizes per-level results keyed by
        the study configuration.  Studies with stateful learned policies
        run serial and uncached (see :meth:`_fingerprint`).  ``policy``
        (a :class:`repro.runtime.FaultPolicy`) governs per-level
        timeouts, retries, and requeues; ``resume=True`` replays an
        interrupted sweep's journaled levels from the cache.
        ``transport``/``transport_options`` select the execution backend
        (see ``docs/distributed.md``); every backend yields bit-identical
        points.  Runner accounting is left in ``self.last_sweep_stats``.
        """
        fingerprint = self._fingerprint()
        if fingerprint is None:
            # Stateful studies are order-dependent: no fan-out, no cache,
            # and no distributed backend either.
            jobs, cache, resume = 1, None, False
            transport, transport_options = None, None
        runner = CampaignRunner(jobs=jobs, cache=cache, progress=progress,
                                policy=policy, resume=resume,
                                transport=transport,
                                transport_options=transport_options)
        probs = [float(p) for p in error_probabilities]
        points = runner.map(
            functools.partial(_run_level_worker, self), probs,
            key=("mc-sweep", fingerprint),
            item_keys=[("level", p) for p in probs],
        )
        self.last_sweep_stats = runner.stats
        return points

    def analytic_rollbacks(self, error_probabilities=DEFAULT_ERROR_PROBS):
        """Closed-form Fig. 5 curve from Eq. (2)'s mean (no sampling).

        Uses the study's configured checkpoint/rollback system — routine
        costs and the ``include_routine_errors`` ablation flag — not the
        defaults, so the analytic curve describes the same system the
        sampled sweep simulates.
        """
        out = []
        for p in error_probabilities:
            cp = self._checkpoint_system(float(p))
            means = [
                cp.expected_segment_rollbacks(c) for c in self.workload
            ]
            out.append(float(np.mean(means)))
        return np.asarray(out)

    def find_wall(self, points, policy_name, hi=0.95, lo=0.05):
        """Locate the error-rate wall for one policy from sweep points."""
        last_safe = None
        first_failed = None
        for point in points:
            rate = point.hit_rate[policy_name]
            if rate >= hi:
                last_safe = point.error_probability
            if rate <= lo and first_failed is None:
                first_failed = point.error_probability
        if last_safe is None:
            last_safe = points[0].error_probability
        if first_failed is None:
            first_failed = points[-1].error_probability
        return ErrorRateWall(
            policy=policy_name, last_safe_p=last_safe, first_failed_p=first_failed
        )


def _policy_tag(policy):
    """Stable per-policy RNG offset.

    zlib.crc32, not hash(): str hashing is salted per process and would
    break cross-run reproducibility.
    """
    return zlib.crc32(policy.name.encode()) % 10_000


def _run_level_worker(study, error_probability):
    """One sweep level (module-level so it pickles for the workers)."""
    return study.run_level(error_probability)
