"""Parallel campaign execution: chunking, transports, cache, fault tolerance.

:class:`CampaignRunner` is the one execution path for every
embarrassingly parallel study in this library (fault-injection
campaigns, the Fig. 5/6 Monte Carlo sweeps, per-element vulnerability
tables).  It feeds units of work to a
:class:`~repro.runtime.scheduler.CampaignScheduler` driving a pluggable
:class:`~repro.runtime.transports.base.Transport` (``inline`` serial
reference, ``tcp`` socket stream to forked local or external workers)
and guarantees four properties the studies rely on:

**Determinism** — trial ``i`` draws from the seed stream
``SeedSequence(entropy=seed, spawn_key=(i,))`` (see
:mod:`repro.runtime.seeding`), so results are bit-identical for any
``jobs`` / ``chunk_size`` / transport combination, including the serial
path — and, because retries never reseed the workload (see
:mod:`repro.runtime.policy`), including runs that suffered crashes,
hangs, worker churn, or resumes.

**Memoization** — with a :class:`~repro.runtime.cache.ResultCache`
attached, each unit (a :class:`TrialChunk` or a mapped item) is keyed by
the campaign fingerprint plus its own coordinates; a re-run executes
only units not cached yet.  Chunk boundaries depend only on
``chunk_size`` (never on ``jobs``), so cached chunks stay valid when the
worker count changes.

**Fault tolerance** — the paper's own checkpoint/rollback discipline,
applied to the harness: unit failures are retried with exponential
backoff under a :class:`~repro.runtime.policy.FaultPolicy`; units
exceeding their wall-clock budget after a worker claimed them are
declared hung and retried (a local worker holding one is killed and
replaced); a dead worker (segfault, OOM kill) is replaced and its units
requeue, up to ``max_requeues`` losses per unit.  Completed units are
stored and journaled in the cache's append-only segment files (see
:mod:`repro.runtime.cache`), written by the scheduler alone — the
single source of truth — so an interrupted campaign resumes where it
left off and finishes bit-identical to an undisturbed run, no matter
how many workers died underneath it.  All of it surfaces
as ``runtime.fault.*`` metrics.

**Graceful degradation** — ``jobs=1`` runs inline with no workers; a
worker or item that cannot be pickled falls back to the inline path
(recorded in :attr:`RunStats.fallback_reason` and counted as
``runtime.fault.serial_fallback``) instead of failing, so closures and
learned policy objects keep working.  Genuine workload errors raised
while probing picklability are **not** swallowed — only pickling
errors trigger the fallback.

Workers receive one task of whole units (chunks or items) per call —
sized adaptively from observed unit latency — which keeps transport
traffic to one message per task rather than per trial.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro import obs
from repro.runtime.policy import DEFAULT_FAULT_POLICY, FaultPolicy
from repro.runtime.scheduler import (  # noqa: F401  (re-exported API)
    DEFAULT_CHUNK_SIZE,
    PICKLING_ERRORS,
    CampaignScheduler,
    ChunkSource,
    ListSource,
    TrialChunk,
    UnitTimeoutError,
    chunk_bounds,
)
from repro.runtime.transports import InlineTransport, Transport, create_transport


@dataclass
class RunStats:
    """Accounting for one runner invocation."""

    total_trials: int = 0
    executed_trials: int = 0
    cached_trials: int = 0
    units_total: int = 0
    units_executed: int = 0
    units_cached: int = 0
    elapsed_s: float = 0.0
    jobs_used: int = 1
    fallback_reason: str = None
    histogram: dict = field(default_factory=dict)
    cache_hits: int = 0  # ResultCache unit hits during this run
    cache_misses: int = 0  # ResultCache unit misses during this run
    retries: int = 0  # unit re-executions after failures/timeouts
    timeouts: int = 0  # units declared hung (lease/budget expired, retried)
    requeues: int = 0  # units re-dispatched after a voided claim (dead worker)
    pool_respawns: int = 0  # local worker processes replaced
    resumed: bool = False  # this run was started with resume=True
    journaled_units: int = 0  # units replayed from a prior run's journal
    journaled_trials: int = 0
    transport: str = "inline"  # transport backend the run started on
    transport_info: dict = field(default_factory=dict)  # its describe() record
    workers: dict = field(default_factory=dict)  # worker id -> heartbeat info

    @property
    def trials_per_sec(self):
        """Executed-trial throughput; 0.0 before any time has elapsed."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.executed_trials / self.elapsed_s


class CampaignRunner:
    """Runs campaign units over a pluggable execution transport.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs inline; ``0`` or ``None``
        means one per CPU.
    chunk_size:
        Trials per :class:`TrialChunk` in :meth:`run_trials`.  Keep it
        constant across runs that should share cache entries.
    cache:
        Optional :class:`~repro.runtime.cache.ResultCache`; ``None``
        disables memoization (and with it the campaign journal, so
        interrupted runs are not resumable).
    progress:
        Optional callback receiving one
        :class:`~repro.runtime.telemetry.ProgressEvent` per finished unit
        (and one per worker respawn, so a stalled-looking campaign still
        reports what it is recovering from).
    classify:
        Optional ``result -> label`` used to build the running outcome
        histogram exposed through progress events and :attr:`stats`.
    policy:
        :class:`~repro.runtime.policy.FaultPolicy` governing timeouts,
        retries, backoff, requeue caps, and task sizing.
        Defaults to :data:`~repro.runtime.policy.DEFAULT_FAULT_POLICY`.
    resume:
        Declare this run a resume of an interrupted campaign: requires
        ``cache``, replays the campaign's journal, and accounts replayed
        units in :attr:`RunStats.journaled_units`.  A resume of a
        campaign that never started (no journal) simply runs fresh.
    transport:
        Execution backend: a registry name (``"inline"``, ``"tcp"``), a
        :class:`~repro.runtime.transports.base.Transport` instance
        (reused across runs; the caller owns its :meth:`shutdown`), or
        ``None`` to pick automatically: inline for ``jobs=1`` or fewer
        than two units, else ``tcp`` with ``jobs`` forked workers.
    transport_options:
        Constructor kwargs when ``transport`` is a registry name — e.g.
        ``{"port": 7777}`` for ``tcp``, which forks ``jobs`` workers
        unless a ``workers`` option says otherwise (``0``: external
        workers only).
    """

    def __init__(self, jobs=1, chunk_size=DEFAULT_CHUNK_SIZE, cache=None,
                 progress=None, classify=None, policy=None, resume=False,
                 transport=None, transport_options=None):
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError("jobs must be positive (or 0/None for all CPUs)")
        self.jobs = int(jobs)
        self.chunk_size = int(chunk_size)
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.cache = cache
        self.progress = progress
        self.classify = classify
        self.policy = policy if policy is not None else DEFAULT_FAULT_POLICY
        if not isinstance(self.policy, FaultPolicy):
            raise TypeError("policy must be a FaultPolicy")
        self.resume = bool(resume)
        if self.resume and cache is None:
            raise ValueError(
                "resume requires a result cache: the cache holds the "
                "journaled unit results a resumed campaign replays"
            )
        if transport_options and not isinstance(transport, str):
            raise ValueError(
                "transport_options apply only when transport is a registry "
                "name; configure a Transport instance directly instead"
            )
        if (transport is not None and not isinstance(transport, (str, Transport))):
            raise TypeError("transport must be a name, a Transport, or None")
        self.transport = transport
        self.transport_options = dict(transport_options or {})
        self.stats = RunStats()

    # -- public entry points --------------------------------------------
    def run_trials(self, worker, n_trials, seed=0, key=()):
        """Run ``worker(chunk) -> list`` over every trial chunk, in order.

        Returns the flat, trial-ordered concatenation of all chunk
        results.  ``key`` must fingerprint everything (besides seed and
        trial range) that determines a trial's result; it namespaces the
        cache entries.  Chunks are generated lazily — a 10M-trial
        campaign never materializes its unit list.
        """
        source = ChunkSource(seed, n_trials, self.chunk_size)
        per_chunk = self._execute(worker, source, key, unit_is_batch=True)
        return [result for chunk_results in per_chunk for result in chunk_results]

    def map(self, worker, items, key=(), item_keys=None):
        """Run ``worker(item)`` for each item, preserving order.

        ``item_keys`` (one JSON-canonicalizable key per item) addresses
        the cache; it defaults to the items themselves, which then must
        be canonicalizable when a cache is attached.
        """
        items = list(items)
        if item_keys is None:
            item_keys = [("item", it) for it in items]
        elif len(item_keys) != len(items):
            raise ValueError("item_keys must match items one-to-one")
        source = ListSource(items, list(item_keys))
        return self._execute(worker, source, key, unit_is_batch=False)

    def run_units(self, worker, source, key=(), unit_is_batch=True):
        """Run ``worker(unit)`` over a custom :class:`UnitSource`.

        The source supplies the unit protocol (``__len__``, ``item``,
        ``key``, ``weight``, ``total_weight``) and may additionally be
        *adaptive*: an optional ``on_result(unit, outcome)`` hook fires
        at commit time for every unit (cache hits included), an optional
        ``available()`` bounds admission to the units the source can
        generate right now, and an optional ``exhausted`` property ends
        the campaign early.  Returns per-unit results in unit order;
        units never admitted (early stop) are ``None``.
        """
        for name in ("item", "key", "weight", "total_weight"):
            if not hasattr(source, name):
                raise TypeError(f"unit source must define {name!r}")
        return self._execute(worker, source, key, unit_is_batch=unit_is_batch)

    # -- internals -------------------------------------------------------
    def _build_transport(self, source):
        """Resolve the transport for one run; ``owns`` marks ours to stop."""
        if isinstance(self.transport, Transport):
            return self.transport, False
        if isinstance(self.transport, str):
            options = dict(self.transport_options)
            if self.transport == "tcp":
                options.setdefault("workers", self.jobs)
            return create_transport(self.transport, **options), True
        # One job or fewer than two units never pays for workers.
        if self.jobs == 1 or len(source) < 2:
            return InlineTransport(), True
        return create_transport("tcp", workers=self.jobs), True

    def _execute(self, worker, source, base_key, unit_is_batch):
        stats = RunStats(
            total_trials=source.total_weight, units_total=len(source),
            jobs_used=self.jobs, resumed=self.resume,
        )
        self.stats = stats
        transport, owns = self._build_transport(source)
        scheduler = CampaignScheduler(
            worker=worker, source=source, base_key=base_key,
            unit_is_batch=unit_is_batch, jobs=self.jobs, cache=self.cache,
            progress=self.progress, classify=self.classify,
            policy=self.policy, resume=self.resume, transport=transport,
            owns_transport=owns, stats=stats,
        )
        obs.emit(
            "campaign.begin",
            units=len(source), trials=stats.total_trials, jobs=self.jobs,
            resumed=stats.resumed,
        )
        with obs.span(
            "runtime.campaign",
            units=len(source), trials=stats.total_trials, jobs=self.jobs,
        ):
            results = scheduler.run()
        obs.emit(
            "campaign.end",
            executed_trials=stats.executed_trials,
            cached_trials=stats.cached_trials,
            elapsed_s=stats.elapsed_s,
            retries=stats.retries,
            timeouts=stats.timeouts,
            pool_respawns=stats.pool_respawns,
            histogram=dict(stats.histogram),
        )
        obs.note_campaign({
            "total_trials": stats.total_trials,
            "executed_trials": stats.executed_trials,
            "cached_trials": stats.cached_trials,
            "units_total": stats.units_total,
            "units_executed": stats.units_executed,
            "units_cached": stats.units_cached,
            "elapsed_s": stats.elapsed_s,
            "trials_per_sec": stats.trials_per_sec,
            "jobs_used": stats.jobs_used,
            "fallback_reason": stats.fallback_reason,
            "histogram": dict(stats.histogram),
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "retries": stats.retries,
            "timeouts": stats.timeouts,
            "requeues": stats.requeues,
            "pool_respawns": stats.pool_respawns,
            "resumed": stats.resumed,
            "journaled_units": stats.journaled_units,
            "journaled_trials": stats.journaled_trials,
            "transport": stats.transport,
            "transport_info": dict(stats.transport_info),
        })
        return results
