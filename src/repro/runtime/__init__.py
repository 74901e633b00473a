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
    Digest-addressed on-disk result cache so re-running a sweep only
    executes new points.
:mod:`repro.runtime.runner`
    :class:`CampaignRunner` — the public campaign API: chunked fan-out
    with a serial fallback for ``jobs=1`` and non-picklable workloads.
:mod:`repro.runtime.scheduler`
    :class:`CampaignScheduler` — the async control loop behind the
    runner: lazy unit admission, adaptive task sizing, retries, leases,
    and the manifest journal, over a pluggable transport.
:mod:`repro.runtime.transports`
    The execution backends: ``inline`` (serial reference) and ``tcp``
    (a socket served to forked local workers and to independent
    ``repro worker --connect`` processes).  See ``docs/distributed.md``.
:mod:`repro.runtime.policy`
    :class:`FaultPolicy` — per-unit wall-clock timeouts, bounded retries
    with deterministically jittered exponential backoff, and requeue
    caps for units whose workers keep dying, so the harness survives
    the faults this repo exists to study.
:mod:`repro.runtime.manifest`
    :class:`CampaignManifest` — append-only journal of completed units
    on top of the result cache; what makes ``--resume`` a first-class,
    bit-identical continuation of an interrupted campaign.
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

from repro.runtime.cache import (
    CACHE_VERSION,
    CacheStats,
    MISS,
    ResultCache,
    default_cache_dir,
    stable_digest,
)
from repro.runtime.chaos import ChaosError, ChaosSpec, ChaosWorker
from repro.runtime.manifest import CampaignManifest
from repro.runtime.policy import (
    DEFAULT_FAULT_POLICY,
    FAIL_FAST_POLICY,
    FaultPolicy,
)
from repro.runtime.runner import (
    DEFAULT_CHUNK_SIZE,
    CampaignRunner,
    RunStats,
    TrialChunk,
    UnitTimeoutError,
    chunk_bounds,
)
from repro.runtime.scheduler import CampaignScheduler, ChunkSource, ListSource
from repro.runtime.seeding import (
    spawn_trial_seeds,
    trial_integers,
    trial_rng,
    trial_seed_sequence,
)
from repro.runtime.stats import (
    hoeffding_halfwidth,
    stratified_estimate,
    wilson_halfwidth,
    wilson_interval,
)
from repro.runtime.telemetry import ProgressEvent, ProgressLog, print_progress
from repro.runtime.transports import (
    InlineTransport,
    TcpTransport,
    Transport,
    create_transport,
    tcp_worker_main,
)

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "MISS",
    "ResultCache",
    "default_cache_dir",
    "stable_digest",
    "ChaosError",
    "ChaosSpec",
    "ChaosWorker",
    "CampaignManifest",
    "DEFAULT_FAULT_POLICY",
    "FAIL_FAST_POLICY",
    "FaultPolicy",
    "DEFAULT_CHUNK_SIZE",
    "CampaignRunner",
    "CampaignScheduler",
    "ChunkSource",
    "ListSource",
    "RunStats",
    "TrialChunk",
    "UnitTimeoutError",
    "chunk_bounds",
    "Transport",
    "InlineTransport",
    "TcpTransport",
    "create_transport",
    "tcp_worker_main",
    "spawn_trial_seeds",
    "trial_integers",
    "trial_rng",
    "trial_seed_sequence",
    "hoeffding_halfwidth",
    "stratified_estimate",
    "wilson_halfwidth",
    "wilson_interval",
    "ProgressEvent",
    "ProgressLog",
    "print_progress",
]
