"""Steered adaptive FI campaigns with sequential early stopping.

Uniform campaigns (:meth:`FaultInjector.run_campaign`) spend most of
their budget on coordinates whose outcome is already predictable — dead
registers mask essentially every flip, ``pc``/``ir`` corrupt essentially
every time.  The paper's Sec. III point (and the ENFOR-SA / MRFI move)
is that ML-accelerated FI earns its orders of magnitude by *pruning
trials*: spend injections where the outcome is uncertain, and stop as
soon as the quantity of interest is known tightly enough.

This module implements that loop as an **adaptive unit source** for the
campaign scheduler:

* The coordinate space is stratified by ``element x cycle-phase``, and
  each register stratum keeps only the cycles at which its register is
  live on the golden run (:meth:`FaultInjector.live_cycles`): a flip at
  a dead cycle is masked for sure, so the dead mass is an exact zero
  that needs no trials.  Each live stratum's probability under the
  uniform campaign measure (``q_s``) is known exactly, so the
  post-stratified estimator ``sum_s q_s * p_hat_s`` is an unbiased
  estimate of the uniform-campaign AVF **no matter how trials are
  allocated** — steering moves variance, never the estimand (see
  :func:`repro.runtime.stats.stratified_estimate`).
* Trials are generated in **rounds**.  Round 0 covers every stratum
  proportionally with half of ``round_trials``; every later round
  (round 1 is the other half) allocates by a Neyman rule
  ``n_s ~ q_s * sqrt(p~_s (1 - p~_s))`` where ``p~_s`` is the observed
  stratum rate shrunk toward the campaign's global rate by
  :data:`PRIOR_STRENGTH` pseudo-trials, mixed with an ``explore`` floor
  of the uniform measure.  Allocation costs a few arithmetic operations
  per stratum, so a campaign's cost is its trials.
* After every sealed round from round 1 on, the CI half-width of the
  estimate (from the observed, Jeffreys-smoothed stratum rates — the
  shrunk rates steer allocation only) is checked against ``target_ci``;
  the campaign **stops early** once the target is met, and the unspent
  budget is reported as ``trials_saved``.

Determinism contract: round ``r``'s coordinates are drawn from the
documented seed-tree child ``SeedSequence(entropy=seed,
spawn_key=(STEER_STREAM_KEY, r))`` (:data:`STEER_STREAM_DOC`), and a
round is generated only once **all** units of earlier rounds have
committed.  The committed outcome multiset of a sealed prefix does not
depend on scheduling, so the same seed and config produce byte-identical
campaigns across ``jobs``, ``chunk_size``, and transports — and a
``--resume`` replays the identical rounds from the result cache.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from repro import obs
from repro.arch.cpu import STATE_ELEMENTS
from repro.arch.fault_injection import CampaignResult, Outcome
from repro.runtime.stats import (
    hoeffding_halfwidth,
    stratified_estimate,
    wilson_halfwidth,
    wilson_interval,
)

#: First element of the acquisition stream's ``spawn_key``.  The seed
#: tree already assigns arity-1 keys ``(trial,)`` to campaign trials
#: (:func:`repro.runtime.seeding.trial_seed_sequence`) and arity-2 keys
#: ``(unit, attempt)`` rooted at the *jitter* seed to retry backoff
#: (:mod:`repro.runtime.policy`); steering takes the arity-2 namespace
#: ``(STEER_STREAM_KEY, round)`` rooted at the campaign seed, with a
#: first component far above any real unit index.
STEER_STREAM_KEY = 0x53544545  # "STEE"

STEER_STREAM_DOC = (
    "steered round r draws all coordinates from "
    "numpy.random.default_rng(SeedSequence(entropy=seed, "
    "spawn_key=(STEER_STREAM_KEY, r)))"
)

#: Run-level cache-key tag of the coordinate generator.  Bumped whenever
#: the same seed and config would generate different coordinates (here:
#: allocation by shrunk empirical rates only, with no fitted model), so
#: a cache or journal written by an older generator never replays its
#: units under the same unit keys.
STEER_KEY_GENERATION = "empirical-allocation"

#: Pseudo-trials at the global failure rate that each stratum's observed
#: rate is shrunk toward before Neyman allocation.
PRIOR_STRENGTH = 4.0

#: Outcomes that count as failures for AVF (matches
#: :meth:`CampaignResult.failure_rate`).
_FAILURE_OUTCOMES = (Outcome.SDC, Outcome.CRASH, Outcome.HANG)

MODES = ("steered", "uniform")


@dataclass
class SteeringConfig:
    """Everything that shapes a steered campaign (all of it is keyed).

    ``mode="uniform"`` keeps the round/stopping machinery but draws
    every round uniformly and stops on a plain Wilson interval — the
    sequential *baseline* a steered run is compared against.
    """

    target_ci: float = 0.02  #: stop when the CI half-width reaches this
    confidence: float = 0.95
    round_trials: int = 128  #: trials per round (round 0 + 1 share one)
    chunk_size: int = 32  #: trials per scheduler unit
    phase_bins: int = 4  #: cycle-phase strata per element
    explore: float = 0.05  #: floor share allocated by the uniform measure
    early_stop: bool = True

    mode: str = "steered"

    def validate(self):
        """Raise ``ValueError`` on any out-of-range field."""
        if not 0.0 < self.target_ci < 0.5:
            raise ValueError("target_ci must be in (0, 0.5)")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.round_trials < 1:
            raise ValueError("round_trials must be positive")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if self.phase_bins < 1:
            raise ValueError("phase_bins must be positive")
        if not 0.0 <= self.explore <= 1.0:
            raise ValueError("explore must be in [0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    def fingerprint(self):
        """Cache-key dict: every field steers generation, so all enter."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class CoordChunk:
    """One scheduler unit: a fixed tuple of (cycle, element, bit) coords."""

    coords: tuple

    def __len__(self):
        return len(self.coords)


def _steered_chunk(injector, chunk):
    """Execute one coordinate chunk (campaign worker)."""
    with obs.span("arch.fault_injection.chunk", trials=len(chunk)):
        return injector.inject_many(list(chunk.coords))


def _largest_remainder(shares, total, minimum=0):
    """Integer allocation of ``total`` by ``shares`` (sum ~1), deterministic.

    Floor-then-distribute by largest fractional part (ties broken by
    index).  ``minimum`` then guarantees a floor per slot, funded by the
    largest allocations — callers must ensure ``total >= minimum * len``.
    """
    raw = [s * total for s in shares]
    counts = [int(math.floor(r)) for r in raw]
    deficit = total - sum(counts)
    order = sorted(range(len(shares)), key=lambda i: (counts[i] - raw[i], i))
    for i in order[:deficit]:
        counts[i] += 1
    if minimum:
        if minimum * len(counts) > total:
            raise ValueError("total too small for the per-slot minimum")
        for i in range(len(counts)):
            while counts[i] < minimum:
                donor = max(
                    range(len(counts)),
                    key=lambda j: (counts[j], -j),
                )
                counts[donor] -= 1
                counts[i] += 1
    return counts


class SteeredUnitSource:
    """Adaptive :class:`CampaignScheduler` unit source for steered FI.

    Implements the static unit protocol (``__len__``/``item``/``key``/
    ``weight``/``total_weight``) plus the adaptive seams (``on_result``,
    ``available``, ``exhausted``).  The *unit layout* — how many rounds,
    their sizes, their chunk boundaries — is a pure function of the
    config, so ``__len__`` and every ``key(i)`` are known up front and
    the campaign journal stays resume-compatible; only the coordinates
    inside each chunk are decided adaptively, at round-seal time, from
    committed outcomes alone.

    ``live_cycles``, aligned with ``elements``, gives each element's
    sorted golden live cycles (:meth:`FaultInjector.live_cycles`; a
    ``None`` entry means every cycle).  Steered rounds draw only from
    them; an element set with no live cycle at all stops at once with
    the exact AVF 0 (``stop_reason="exact"``).
    """

    def __init__(self, *, seed, budget, elements, golden_cycles,
                 config=None, live_cycles=None):
        self.config = config or SteeringConfig()
        self.config.validate()
        cfg = self.config
        self.seed = int(seed)
        self.budget = int(budget)
        self.elements = list(elements)
        self.golden_cycles = int(golden_cycles)
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if not self.elements:
            raise ValueError("elements must be non-empty")
        if self.golden_cycles < 1:
            raise ValueError("golden_cycles must be positive")

        # Strata: element x cycle-phase, in fixed (element, phase) order.
        # Steered runs keep only each stratum's live cycles (the pool
        # they draw from): a flip at a dead cycle is masked for sure, so
        # that mass is an exact zero and needs no trials.  ``None`` (an
        # element without a liveness pool, or uniform mode) means every
        # cycle of the phase.
        bins = min(cfg.phase_bins, self.golden_cycles)
        self._phase_bounds = [
            b * self.golden_cycles // bins for b in range(bins + 1)
        ]
        self._bins = bins
        if live_cycles is None or cfg.mode != "steered":
            live_cycles = [None] * len(self.elements)
        if len(live_cycles) != len(self.elements):
            raise ValueError("live_cycles must align with elements")
        self._strata = []
        self._pools = []
        for e, live in enumerate(live_cycles):
            live = (np.arange(self.golden_cycles) if live is None
                    else np.asarray(live, dtype=np.int64))
            cuts = np.searchsorted(live, self._phase_bounds)
            for b in range(bins):
                pool = live[cuts[b]:cuts[b + 1]]
                if len(pool):
                    self._strata.append((e, b))
                    self._pools.append(pool)
        sizes = [len(pool) for pool in self._pools]
        # ``live_mass`` is the live strata's share of the uniform measure;
        # ``_q`` renormalises them to sum to 1 (the estimate scales back).
        total = sum(sizes)
        self.live_mass = total / (self.golden_cycles * len(self.elements))
        self._q = [size / total for size in sizes]

        # Static unit layout: round sizes are config-determined.
        self._round_sizes = self._plan_rounds()
        self._unit_bounds = []  # (round, start_in_round, stop_in_round)
        self._round_end_unit = []
        for r, size in enumerate(self._round_sizes):
            for start in range(0, size, cfg.chunk_size):
                self._unit_bounds.append(
                    (r, start, min(start + cfg.chunk_size, size))
                )
            self._round_end_unit.append(len(self._unit_bounds))

        # Adaptive state.
        self._chunks = []  # CoordChunk per generated unit, unit order
        self._chunk_strata = []  # per generated unit: each coord's stratum
        self._committed = []  # per generated unit
        self._next_commit = 0  # sealed prefix pointer
        self._rounds_generated = 0
        self._rounds_sealed = 0
        self._n_s = [0] * len(self._strata)
        self._f_s = [0] * len(self._strata)
        self._trials_committed = 0
        self._failures_committed = 0
        self.stopped = False
        self.stop_reason = None
        self.trajectory = []  # one dict per sealed round
        if self._strata:
            self._generate_round()
        else:
            # No live coordinate: the AVF is exactly 0, with no trial.
            self._stop("exact", 0.0, 0.0)

    # -- static layout ---------------------------------------------------
    def _plan_rounds(self):
        cfg = self.config
        sizes = []
        if not self._strata:
            return sizes
        remaining = self.budget
        head = []
        if cfg.mode == "steered":
            # The first round_trials split in two: the bootstrap round
            # must reach every stratum at least once or the
            # post-stratified estimator is undefined; its rates steer
            # the other half.
            half = max(cfg.round_trials // 2, 1)
            first = max(half, len(self._strata))
            if self.budget < first:
                raise ValueError(
                    f"budget ({self.budget}) must cover the bootstrap "
                    f"round ({first} trials: max(round_trials // 2, strata))"
                )
            head = [first, half]
        while remaining > 0:
            r = len(sizes)
            size = min(head[r] if r < len(head) else cfg.round_trials,
                       remaining)
            sizes.append(size)
            remaining -= size
        return sizes

    def __len__(self):
        return len(self._unit_bounds)

    def key(self, i):
        """Unit cache-key coordinates (static: layout is config-pure)."""
        r, start, stop = self._unit_bounds[i]
        return ("steer", self.seed, r, start, stop)

    def weight(self, i):
        """Trials carried by unit ``i``."""
        _, start, stop = self._unit_bounds[i]
        return stop - start

    @property
    def total_weight(self):
        """The full trial budget (executed trials may stop short of it)."""
        return self.budget

    def item(self, i):
        """The generated :class:`CoordChunk` at unit ``i``."""
        return self._chunks[i]

    # -- adaptive seams --------------------------------------------------
    def available(self):
        """Units generated so far — the scheduler's admission bound."""
        return len(self._chunks)

    @property
    def exhausted(self):
        """True once the stopping rule has ended the campaign."""
        return self.stopped

    def on_result(self, i, records):
        """Commit unit ``i``: tally strata, seal rounds, steer, stop."""
        if self._committed[i]:
            return
        self._committed[i] = True
        # Records come back in coordinate order, so each one tallies into
        # the stratum that generated its coordinate.
        for s, record in zip(self._chunk_strata[i], records):
            failed = record.outcome in _FAILURE_OUTCOMES
            self._n_s[s] += 1
            self._f_s[s] += failed
            self._trials_committed += 1
            self._failures_committed += failed
        while (self._next_commit < len(self._chunks)
               and self._committed[self._next_commit]):
            self._next_commit += 1
        while (self._rounds_sealed < self._rounds_generated
               and self._next_commit
               >= self._round_end_unit[self._rounds_sealed]):
            self._seal_round()

    # -- round sealing ---------------------------------------------------
    def _seal_round(self):
        cfg = self.config
        r = self._rounds_sealed
        self._rounds_sealed += 1
        obs.inc("arch.fi.steering.rounds")
        estimate, halfwidth = self.estimate()
        self.trajectory.append({
            "round": r,
            "trials": self._trials_committed,
            "estimate": estimate,
            "halfwidth": halfwidth,
            "hoeffding": hoeffding_halfwidth(
                self._trials_committed, cfg.confidence
            ),
        })
        obs.emit(
            "steer.round", round=r, trials=self._trials_committed,
            estimate=estimate, halfwidth=halfwidth, target=cfg.target_ci,
        )
        # A steered round 0 holds a few trials per stratum, so its
        # Jeffreys width speaks for the smoothing prior more than for
        # the program: the first stop check follows round 1.
        bootstrap = cfg.mode == "steered" and r == 0
        if cfg.early_stop and not bootstrap and halfwidth <= cfg.target_ci:
            self._stop("target", estimate, halfwidth)
            return
        if self._rounds_generated >= len(self._round_sizes):
            self._stop("budget", estimate, halfwidth)
            return
        self._generate_round()

    def _stop(self, reason, estimate, halfwidth):
        self.stopped = True
        self.stop_reason = reason
        saved = self.budget - self._trials_committed
        if reason != "budget":
            obs.inc("arch.fi.steering.stopped_early")
        obs.inc("arch.fi.steering.trials_saved", saved)
        obs.emit(
            "steer.stop", reason=reason,
            trials_executed=self._trials_committed, budget=self.budget,
            trials_saved=saved, estimate=estimate, halfwidth=halfwidth,
            rounds=self._rounds_sealed,
        )

    # -- estimation ------------------------------------------------------
    def estimate(self):
        """Current ``(avf, ci_halfwidth)`` from committed trials only."""
        cfg = self.config
        if cfg.mode == "uniform":
            return (
                (self._failures_committed / self._trials_committed
                 if self._trials_committed else 0.0),
                wilson_halfwidth(
                    self._failures_committed, self._trials_committed,
                    cfg.confidence,
                ),
            )
        # Dead coordinates are an exact-zero stratum of mass
        # 1 - live_mass: the estimate and its width are the live
        # strata's, on their renormalised weights, scaled by live_mass.
        # The width uses observed (Jeffreys) rates, never the shrunk ones.
        if not self._strata:
            return 0.0, 0.0
        estimate, halfwidth = stratified_estimate(
            self._q, self._f_s, self._n_s, cfg.confidence
        )
        return self.live_mass * estimate, self.live_mass * halfwidth

    def _blended(self):
        """Per-stratum ``p~_s``: observed rate shrunk toward the global rate."""
        # Laplace-smoothed so an all-masked or all-failed prefix keeps a
        # usable prior.
        prior = (self._failures_committed + 1.0) / (self._trials_committed + 2.0)
        return [
            (f + PRIOR_STRENGTH * prior) / (n + PRIOR_STRENGTH)
            for f, n in zip(self._f_s, self._n_s)
        ]

    # -- generation ------------------------------------------------------
    def _round_rng(self, r):
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed, spawn_key=(STEER_STREAM_KEY, r)
            )
        )

    def _allocation(self, r, size):
        cfg = self.config
        if r == 0:
            return _largest_remainder(self._q, size, minimum=1)
        # Every p~_s lies strictly inside (0, 1), so every score is > 0.
        scores = [
            q * math.sqrt(p * (1.0 - p))
            for q, p in zip(self._q, self._blended())
        ]
        total = sum(scores)
        shares = [
            (1.0 - cfg.explore) * s / total + cfg.explore * q
            for s, q in zip(scores, self._q)
        ]
        return _largest_remainder(shares, size)

    def _generate_round(self):
        cfg = self.config
        r = self._rounds_generated
        size = self._round_sizes[r]
        rng = self._round_rng(r)
        coords = []
        strata = []
        if cfg.mode == "uniform":
            cycles = rng.integers(0, self.golden_cycles, size=size)
            els = rng.integers(0, len(self.elements), size=size)
            bits = rng.integers(0, 32, size=size)
            # Every (element, phase) stratum exists in uniform mode, in
            # element-major order; the phase inverts the floor partition
            # ``_phase_bounds`` (not ``cycle * bins // golden_cycles``,
            # which disagrees with it when the bins are uneven).
            phase = np.searchsorted(self._phase_bounds, cycles, side="right") - 1
            strata = (els * self._bins + phase).tolist()
            names = self.elements
            coords = [
                (c, names[e], b)
                for c, e, b in zip(cycles.tolist(), els.tolist(), bits.tolist())
            ]
        else:
            for s, n in enumerate(self._allocation(r, size)):
                if n == 0:
                    continue
                e, _ = self._strata[s]
                pool = self._pools[s]
                cycles = pool[rng.integers(0, len(pool), size=n)]
                bits = rng.integers(0, 32, size=n)
                element = itertools.repeat(self.elements[e])
                coords.extend(zip(cycles.tolist(), element, bits.tolist()))
                strata.extend(itertools.repeat(s, n))
        self._rounds_generated += 1
        for start in range(0, size, cfg.chunk_size):
            stop = start + cfg.chunk_size
            self._chunks.append(CoordChunk(coords=tuple(coords[start:stop])))
            self._chunk_strata.append(strata[start:stop])
            self._committed.append(False)

    # -- reporting -------------------------------------------------------
    def summary(self):
        """Steering facts for run records and results (JSON-safe)."""
        cfg = self.config
        estimate, halfwidth = (
            self.estimate() if self._trials_committed or not self._strata
            else (0.0, 1.0)
        )
        return {
            "mode": cfg.mode,
            "target_ci": cfg.target_ci,
            "confidence": cfg.confidence,
            "early_stop": cfg.early_stop,
            "budget": self.budget,
            "trials_executed": self._trials_committed,
            "trials_saved": self.budget - self._trials_committed,
            "avf_estimate": estimate,
            "ci_halfwidth": halfwidth,
            "rounds": self._rounds_sealed,
            "refits": 0,  # no model is fitted; kept for record readers
            "stopped_early": self.stop_reason in ("target", "exact"),
            "stop_reason": self.stop_reason,
            "strata": len(self._strata),
            "live_mass": self.live_mass,
            "phase_bins": self._bins,
            "round_trials": cfg.round_trials,
            "chunk_size": cfg.chunk_size,
            "explore": cfg.explore,
            "seed_stream": STEER_STREAM_DOC,
            "trajectory": list(self.trajectory),
        }


@dataclass
class SteeredCampaignResult(CampaignResult):
    """A steered campaign's records plus its steering/stopping facts."""

    steering: dict = field(default_factory=dict)

    def uniform_interval(self, confidence=0.95):
        """Wilson interval a *uniform* campaign of these records would get.

        Only meaningful for ``mode="uniform"`` results; for steered
        records the raw failure fraction is allocation-biased — use
        ``steering["avf_estimate"]`` instead.
        """
        failures = sum(
            r.outcome in _FAILURE_OUTCOMES for r in self.records
        )
        return wilson_interval(failures, len(self.records), confidence)


def run_steered_campaign(injector, budget=4096, seed=0, elements=None,
                         config=None, jobs=1, cache=None, progress=None,
                         policy=None, resume=False, worker_wrapper=None,
                         transport=None, transport_options=None):
    """Run an adaptively steered campaign on ``injector``.

    Drop-in sibling of :meth:`FaultInjector.run_campaign`: same runtime
    knobs (cache, policy, resume, transports, chaos wrapper), but trials
    are allocated by :class:`SteeredUnitSource` and the campaign stops
    once the AVF CI half-width reaches ``config.target_ci`` (or the
    ``budget`` is spent).  Returns a :class:`SteeredCampaignResult`;
    runner accounting lands in ``injector.last_run_stats``.
    """
    import functools

    from repro.runtime.runner import CampaignRunner

    config = config or SteeringConfig()
    config.validate()
    elements = list(elements or STATE_ELEMENTS)
    unknown = sorted(set(elements) - set(STATE_ELEMENTS))
    if unknown:
        raise ValueError(f"unknown element {unknown[0]!r}")
    source = SteeredUnitSource(
        seed=seed, budget=budget, elements=elements,
        golden_cycles=injector.golden_cycles, config=config,
        live_cycles=[injector.live_cycles(e) for e in elements],
    )
    worker = functools.partial(_steered_chunk, injector)
    if worker_wrapper is not None:
        worker = worker_wrapper(worker)
    runner = CampaignRunner(
        jobs=jobs, cache=cache, progress=progress,
        classify=lambda record: record.outcome.value,
        policy=policy, resume=resume,
        transport=transport, transport_options=transport_options,
    )
    with obs.span(
        "arch.fault_injection.steered_campaign",
        program=injector.program.name, budget=budget, mode=config.mode,
    ):
        per_unit = runner.run_units(
            worker, source,
            key=("fi-steer", STEER_KEY_GENERATION, injector.fingerprint(),
                 config.fingerprint(), budget, elements),
        )
    injector.last_run_stats = runner.stats
    records = [
        record
        for unit_records in per_unit
        if unit_records is not None
        for record in unit_records
    ]
    return SteeredCampaignResult(
        program=injector.program.name,
        golden_output=injector.golden_output,
        golden_cycles=injector.golden_cycles,
        records=records,
        steering=source.summary(),
    )
