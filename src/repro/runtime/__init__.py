"""Shared parallel-execution layer for campaigns and sweeps.

Every headline experiment in this reproduction — the Sec. III
fault-injection taxonomy, the Fig. 5/6 Monte Carlo study, the
ML-accelerated FI ground-truth tables — is an embarrassingly parallel
sweep of independent trials.  This package provides the one runtime
they all share:

:mod:`repro.runtime.seeding`
    Deterministic per-trial seed streams
    (``SeedSequence(entropy=seed, spawn_key=(i,))``) so parallel and
    serial runs are bit-identical.
:mod:`repro.runtime.cache`
    Digest-addressed result cache so re-running a sweep only executes
    new points, plus the campaign journal (:class:`CampaignManifest`)
    that makes ``--resume`` a bit-identical continuation of an
    interrupted campaign; both are frames in per-writer append-only
    segment files.
:mod:`repro.runtime.runner`
    :class:`CampaignRunner` — the public campaign API: chunked fan-out
    with a serial fallback for ``jobs=1`` and non-picklable workloads.
:mod:`repro.runtime.scheduler`
    :class:`CampaignScheduler` — the async control loop behind the
    runner: lazy unit admission, adaptive task sizing, retries, leases,
    and the campaign journal, over a pluggable transport.
:mod:`repro.runtime.transports`
    The execution backends: ``inline`` (serial reference) and ``tcp``
    (a socket served to forked local workers and to independent
    ``repro worker --connect`` processes).  See ``docs/distributed.md``.
:mod:`repro.runtime.policy`
    :class:`FaultPolicy` — per-unit wall-clock timeouts, bounded retries
    with deterministically jittered exponential backoff, and requeue
    caps for units whose workers keep dying, so the harness survives
    the faults this repo exists to study.
:mod:`repro.runtime.chaos`
    :class:`ChaosWorker` — deterministic injection of worker crashes,
    deaths, hangs, and slowdowns for tests and the ``chaos-resume`` CI
    job.
:mod:`repro.runtime.telemetry`
    Progress events (trials/sec, ETA, cache hit/miss deltas, retry and
    respawn counts, outcome histogram so far) and ready-made consumers.

The runner is also instrumented against :mod:`repro.obs`: with
collection enabled it opens a ``runtime.campaign`` span per invocation,
captures spans/metrics recorded inside workers and re-parents them
onto the parent process's tree, and notes per-campaign accounting for
structured run records (``repro <exp> --record`` / ``repro report``).

See ``docs/campaigns.md`` for the user-facing guide and
``docs/observability.md`` for the observability layer.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module; each is imported on first use.
_EXPORTS = {
    "CACHE_VERSION": "cache",
    "CacheStats": "cache",
    "CampaignManifest": "cache",
    "MISS": "cache",
    "ResultCache": "cache",
    "default_cache_dir": "cache",
    "stable_digest": "cache",
    "ChaosError": "chaos",
    "ChaosSpec": "chaos",
    "ChaosWorker": "chaos",
    "DEFAULT_FAULT_POLICY": "policy",
    "FAIL_FAST_POLICY": "policy",
    "FaultPolicy": "policy",
    "DEFAULT_CHUNK_SIZE": "scheduler",
    "CampaignRunner": "runner",
    "CampaignScheduler": "scheduler",
    "ChunkSource": "scheduler",
    "ListSource": "scheduler",
    "RunStats": "runner",
    "TrialChunk": "scheduler",
    "UnitTimeoutError": "scheduler",
    "chunk_bounds": "scheduler",
    "Transport": "transports",
    "InlineTransport": "transports",
    "TcpTransport": "transports",
    "create_transport": "transports",
    "tcp_worker_main": "transports",
    "trial_integers": "seeding",
    "trial_rng": "seeding",
    "trial_seed_sequence": "seeding",
    "hoeffding_halfwidth": "stats",
    "stratified_estimate": "stats",
    "wilson_halfwidth": "stats",
    "wilson_interval": "stats",
    "ProgressEvent": "telemetry",
    "ProgressLog": "telemetry",
    "format_progress": "telemetry",
    "print_progress": "telemetry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
