"""Surrogate-steered adaptive FI campaigns with sequential early stopping.

Uniform campaigns (:meth:`FaultInjector.run_campaign`) spend most of
their budget on coordinates whose outcome is already predictable — dead
registers mask essentially every flip, ``pc``/``ir`` corrupt essentially
every time.  The paper's Sec. III point (and the ENFOR-SA / MRFI move)
is that ML-accelerated FI earns its orders of magnitude by *pruning
trials*: spend injections where the outcome is uncertain, and stop as
soon as the quantity of interest is known tightly enough.

This module implements that loop as an **adaptive unit source** for the
campaign scheduler:

* The coordinate space is stratified by ``element x cycle-phase``; each
  stratum's probability under the uniform campaign measure (``q_s``) is
  known exactly, so the post-stratified estimator
  ``sum_s q_s * p_hat_s`` is an unbiased estimate of the
  uniform-campaign AVF **no matter how trials are allocated** — steering
  moves variance, never the estimand (see
  :func:`repro.runtime.stats.stratified_estimate`).
* Trials are generated in **rounds**.  Round 0 covers every stratum
  proportionally; later rounds allocate by a Neyman rule
  ``n_s ~ q_s * sqrt(p~_s (1 - p~_s))`` where ``p~_s`` blends the
  observed stratum rate with a surrogate model
  (:class:`repro.ml.GradientBoostingClassifier` or
  :class:`repro.ml.KNeighborsClassifier`, refit online on
  :func:`repro.arch.vulnerability.element_features` + cycle-phase
  features), mixed with an ``explore`` floor of the uniform measure.
* After every sealed round the CI half-width of the estimate is checked
  against ``target_ci``; the campaign **stops early** once the target
  is met, and the unspent budget is reported as ``trials_saved``.

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

import bisect
import math
from dataclasses import dataclass, field, fields

import numpy as np

from repro import obs
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

#: Outcomes that count as failures for AVF (matches
#: :meth:`CampaignResult.failure_rate`).
_FAILURE_OUTCOMES = (Outcome.SDC, Outcome.CRASH, Outcome.HANG)

SURROGATES = ("gbdt", "knn", "none")
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
    round_trials: int = 128  #: trials generated per adaptive round
    chunk_size: int = 32  #: trials per scheduler unit
    phase_bins: int = 4  #: cycle-phase strata per element
    explore: float = 0.05  #: floor share allocated by the uniform measure
    surrogate: str = "gbdt"  #: "gbdt", "knn", or "none" (empirical only)
    refit_chunks: int = 4  #: refit after this many new committed chunks
    prior_strength: float = 4.0  #: pseudo-trials the surrogate contributes
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
        if self.surrogate not in SURROGATES:
            raise ValueError(f"surrogate must be one of {SURROGATES}")
        if self.refit_chunks < 1:
            raise ValueError("refit_chunks must be positive")
        if self.prior_strength < 0:
            raise ValueError("prior_strength must be non-negative")
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
    the manifest journal stays resume-compatible; only the coordinates
    inside each chunk are decided adaptively, at round-seal time, from
    committed outcomes alone.
    """

    def __init__(self, *, seed, budget, elements, golden_cycles,
                 config=None, features=None):
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
        if cfg.surrogate != "none" and cfg.mode == "steered":
            if features is None:
                raise ValueError(
                    "a surrogate needs per-element feature rows; pass "
                    "features aligned with elements or surrogate='none'"
                )
            features = np.asarray(features, dtype=float)
            if features.shape[0] != len(self.elements):
                raise ValueError("features must align with elements")
        self.features = features

        # Strata: element x cycle-phase, in fixed (element, phase) order.
        bins = min(cfg.phase_bins, self.golden_cycles)
        self._phase_bounds = [
            b * self.golden_cycles // bins for b in range(bins + 1)
        ]
        self._bins = bins
        self._strata = [
            (e, b) for e in range(len(self.elements)) for b in range(bins)
        ]
        self._stratum_index = {s: k for k, s in enumerate(self._strata)}
        self._element_index = {e: k for k, e in enumerate(self.elements)}
        n_el = len(self.elements)
        self._q = [
            (self._phase_bounds[b + 1] - self._phase_bounds[b])
            / self.golden_cycles / n_el
            for (_, b) in self._strata
        ]

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
        self._committed = []  # per generated unit
        self._unit_tallies = {}  # unit -> list of (stratum, failed)
        self._next_commit = 0  # sealed prefix pointer
        self._rounds_generated = 0
        self._rounds_sealed = 0
        self._n_s = [0] * len(self._strata)
        self._f_s = [0] * len(self._strata)
        self._trials_committed = 0
        self._failures_committed = 0
        self._p_model = None  # per-stratum surrogate probabilities
        self._units_since_fit = 0
        self.refits = 0
        self.stopped = False
        self.stop_reason = None
        self.trajectory = []  # one dict per sealed round
        self._generate_round()

    # -- static layout ---------------------------------------------------
    def _plan_rounds(self):
        cfg = self.config
        sizes = []
        remaining = self.budget
        first = cfg.round_trials
        if cfg.mode == "steered":
            # The bootstrap round must reach every stratum at least once
            # or the post-stratified estimator is undefined.
            first = max(first, len(self._strata))
            if self.budget < first:
                raise ValueError(
                    f"budget ({self.budget}) must cover the bootstrap "
                    f"round ({first} trials: max(round_trials, strata))"
                )
        while remaining > 0:
            size = min(first if not sizes else cfg.round_trials, remaining)
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
        tallies = []
        for record in records:
            s = self._locate(record.cycle, record.element)
            failed = record.outcome in _FAILURE_OUTCOMES
            tallies.append((s, failed))
            self._n_s[s] += 1
            self._f_s[s] += failed
            self._trials_committed += 1
            self._failures_committed += failed
        self._unit_tallies[i] = tallies
        self._units_since_fit += 1
        while (self._next_commit < len(self._chunks)
               and self._committed[self._next_commit]):
            self._next_commit += 1
        while (self._rounds_sealed < self._rounds_generated
               and self._next_commit
               >= self._round_end_unit[self._rounds_sealed]):
            self._seal_round()

    def _locate(self, cycle, element):
        # Invert the *generation* partition: ``_phase_bounds`` is a floor
        # partition, so when ``golden_cycles % bins != 0`` the naive
        # ``cycle * bins // golden_cycles`` disagrees with it and tallies
        # land in the wrong stratum.
        e = self._element_index[element]
        b = bisect.bisect_right(self._phase_bounds, cycle) - 1
        b = min(max(b, 0), self._bins - 1)
        return self._stratum_index[(e, b)]

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
        if cfg.early_stop and halfwidth <= cfg.target_ci:
            self._stop("target", estimate, halfwidth)
            return
        if self._rounds_generated >= len(self._round_sizes):
            self._stop("budget", estimate, halfwidth)
            return
        if cfg.mode == "steered" and cfg.surrogate != "none":
            self._maybe_refit(r)
        self._generate_round()

    def _stop(self, reason, estimate, halfwidth):
        self.stopped = True
        self.stop_reason = reason
        saved = self.budget - self._trials_committed
        if reason == "target":
            obs.inc("arch.fi.steering.stopped_early")
        obs.inc("arch.fi.steering.trials_saved", saved)
        obs.emit(
            "steer.stop", reason=reason,
            trials_executed=self._trials_committed, budget=self.budget,
            trials_saved=saved, estimate=estimate, halfwidth=halfwidth,
            rounds=self._rounds_sealed, refits=self.refits,
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
        # Model-assisted CI: the variance plugs in the same blended
        # per-stratum rates that drive allocation, so a stratum the
        # surrogate (plus its own observations) calls dead contributes
        # ~zero width instead of a worst-case continuity correction.
        return stratified_estimate(
            self._q, self._f_s, self._n_s, cfg.confidence,
            variance_rates=self._blended(),
        )

    def _global_rate(self):
        # Laplace-smoothed so an all-masked or all-failed prefix keeps a
        # usable prior.
        return (self._failures_committed + 1.0) / (self._trials_committed + 2.0)

    def _blended(self):
        """Per-stratum ``p~_s``: observed rate shrunk toward the prior."""
        cfg = self.config
        prior = self._p_model
        fallback = self._global_rate()
        out = []
        for s in range(len(self._strata)):
            p_prior = fallback if prior is None else float(prior[s])
            out.append(
                (self._f_s[s] + cfg.prior_strength * p_prior)
                / (self._n_s[s] + cfg.prior_strength)
            )
        return out

    # -- surrogate -------------------------------------------------------
    def _maybe_refit(self, sealed_round):
        cfg = self.config
        if self._units_since_fit < cfg.refit_chunks:
            return
        X, y = self._training_set()
        if len(X) > 2048:
            # Cap the fit cost: evenly spaced row selection is
            # deterministic and keeps every round represented.
            keep = np.linspace(0, len(X) - 1, 2048).astype(int)
            X, y = X[keep], y[keep]
        if len(np.unique(y)) < 2:
            # Single-class history: the constant rate is the best model.
            self._p_model = np.full(len(self._strata), float(y[0]) if len(y) else 0.5)
            self._units_since_fit = 0
            return
        from repro.ml import (
            GradientBoostingClassifier,
            KNeighborsClassifier,
            StandardScaler,
        )
        scaler = StandardScaler().fit(X)
        if cfg.surrogate == "gbdt":
            model = GradientBoostingClassifier(
                n_estimators=30, max_depth=3, seed=0
            )
        else:
            model = KNeighborsClassifier(
                n_neighbors=min(15, len(X))
            )
        model.fit(scaler.transform(X), y)
        proba = model.predict_proba(scaler.transform(self._stratum_rows()))
        fail_col = int(np.argmax(model.classes_ == 1))
        self._p_model = proba[:, fail_col]
        self._units_since_fit = 0
        self.refits += 1
        obs.inc("arch.fi.steering.refits")
        obs.emit(
            "steer.refit", round=sealed_round, samples=len(X),
            surrogate=cfg.surrogate,
        )

    def _row(self, element_index, cycle_frac):
        return list(self.features[element_index]) + [cycle_frac]

    def _training_set(self):
        """Committed trials as (features, fail) rows, in unit order.

        Built from stored per-unit tallies in *unit* order — never
        arrival order — so the fitted model (hence the next allocation)
        is identical no matter how the transport interleaved commits.
        """
        X, y = [], []
        for i in range(self._next_commit):
            chunk = self._chunks[i]
            for (cycle, element, _bit), (s, failed) in zip(
                chunk.coords, self._unit_tallies[i]
            ):
                e, _ = self._strata[s]
                X.append(self._row(e, (cycle + 0.5) / self.golden_cycles))
                y.append(int(failed))
        return np.asarray(X, dtype=float), np.asarray(y, dtype=int)

    def _stratum_rows(self):
        rows = []
        for (e, b) in self._strata:
            center = 0.5 * (self._phase_bounds[b] + self._phase_bounds[b + 1])
            rows.append(self._row(e, center / self.golden_cycles))
        return np.asarray(rows, dtype=float)

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
        scores = [
            q * math.sqrt(p * (1.0 - p))
            for q, p in zip(self._q, self._blended())
        ]
        total = sum(scores)
        if total <= 0.0:
            shares = list(self._q)
        else:
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
        if cfg.mode == "uniform":
            cycles = rng.integers(0, self.golden_cycles, size=size)
            els = rng.integers(0, len(self.elements), size=size)
            bits = rng.integers(0, 32, size=size)
            coords = [
                (int(c), self.elements[int(e)], int(b))
                for c, e, b in zip(cycles, els, bits)
            ]
        else:
            for s, n in enumerate(self._allocation(r, size)):
                if n == 0:
                    continue
                e, b = self._strata[s]
                lo, hi = self._phase_bounds[b], self._phase_bounds[b + 1]
                cycles = rng.integers(lo, hi, size=n)
                bits = rng.integers(0, 32, size=n)
                element = self.elements[e]
                coords.extend(
                    (int(c), element, int(bit))
                    for c, bit in zip(cycles, bits)
                )
        self._rounds_generated += 1
        for start in range(0, size, cfg.chunk_size):
            self._chunks.append(
                CoordChunk(coords=tuple(coords[start:start + cfg.chunk_size]))
            )
            self._committed.append(False)

    # -- reporting -------------------------------------------------------
    def summary(self):
        """Steering facts for run records and results (JSON-safe)."""
        cfg = self.config
        estimate, halfwidth = (
            self.estimate() if self._trials_committed else (0.0, 1.0)
        )
        return {
            "mode": cfg.mode,
            "surrogate": cfg.surrogate if cfg.mode == "steered" else None,
            "target_ci": cfg.target_ci,
            "confidence": cfg.confidence,
            "early_stop": cfg.early_stop,
            "budget": self.budget,
            "trials_executed": self._trials_committed,
            "trials_saved": self.budget - self._trials_committed,
            "avf_estimate": estimate,
            "ci_halfwidth": halfwidth,
            "rounds": self._rounds_sealed,
            "refits": self.refits,
            "stopped_early": self.stop_reason == "target",
            "stop_reason": self.stop_reason,
            "strata": len(self._strata),
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

    from repro.arch.cpu import CPU
    from repro.runtime.runner import CampaignRunner

    config = config or SteeringConfig()
    config.validate()
    elements = list(elements or CPU(injector.program).state_elements())
    features = None
    if config.mode == "steered" and config.surrogate != "none":
        from repro.arch.vulnerability import element_features
        all_elements, all_rows = element_features(injector.program)
        index = {name: i for i, name in enumerate(all_elements)}
        try:
            features = all_rows[[index[e] for e in elements]]
        except KeyError as exc:
            raise ValueError(f"unknown element {exc.args[0]!r}") from None
    source = SteeredUnitSource(
        seed=seed, budget=budget, elements=elements,
        golden_cycles=injector.golden_cycles, config=config,
        features=features,
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
            key=("fi-steer", injector.fingerprint(), config.fingerprint(),
                 budget, elements),
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
