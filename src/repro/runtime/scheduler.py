"""Async campaign scheduler: unit admission, retries, leases, accounting.

:class:`CampaignScheduler` is the single control loop behind
:class:`~repro.runtime.runner.CampaignRunner`.  It owns everything that
must survive worker churn — unit generation, the cache scan, the
campaign journal (frames in the result cache's segments), retry/backoff
state, wall-clock deadlines, the outcome histogram — and drives a
pluggable :class:`~repro.runtime.transports.base.Transport` that owns
only execution.  The loop:

1. **admit** — pull the next units from a lazy :class:`UnitSource`
   (never materializing a 10M-unit campaign), compute their digests,
   satisfy cache hits, and queue the misses.  Admission is bounded by a
   window proportional to the in-flight capacity, so generation overlaps
   execution instead of preceding it.
2. **dispatch** — group ready units into transport tasks, sized
   adaptively from the observed per-unit latency EMA (target
   :data:`TARGET_TASK_S` per task, capped at
   ``policy.max_units_per_task``; pinned to 1 while per-unit timeouts
   are armed).  Grouping never touches seeds, digests, or result order.
3. **poll** — collect per-unit outcomes plus lifecycle signals and
   translate them into the same metrics, events, and stats the
   monolithic runner produced: retries with deterministic backoff,
   timeout/lease expiry, worker respawn accounting, progress events.

Because the scheduler alone writes the result cache and its campaign
journal (workers only execute), a campaign completes bit-identically
to the inline reference no matter how many workers
died along the way — surviving workers alone, or a ``--resume`` after
killing everything, finish the same records.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import os
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.runtime.cache import MISS, stable_digest
from repro.runtime.seeding import trial_integers, trial_seed_sequence
from repro.runtime.telemetry import ProgressEvent
from repro.runtime.transports import InlineTransport, TransportContext

#: Trials per chunk.  Fixed (not derived from ``jobs``) so cache entries
#: remain chunk-aligned across different worker counts.
DEFAULT_CHUNK_SIZE = 32

#: Exceptions raised by the picklability probe that mean "this workload
#: cannot travel to a worker process" (CPython raises all three
#: depending on the object).  Anything else the probe raises is a real
#: workload error and propagates.
PICKLING_ERRORS = (pickle.PicklingError, TypeError, AttributeError)

#: Smoothing factor of the per-unit latency EMA behind adaptive task
#: sizing (weight of the newest observation).
LATENCY_EMA_ALPHA = 0.2

#: Adaptive task-sizing goal: units are grouped into one transport task
#: until the group's estimated wall time (from the latency EMA) reaches
#: this many seconds.  Grouping amortizes per-task transport overhead
#: without affecting seeds, digests, or results.
TARGET_TASK_S = 0.2

#: Floor of the admission window: how many units may be waiting or in
#: flight before unit generation pauses.
MIN_ADMISSION_WINDOW = 256

#: Per-process run counter folded into task ids.  Stale-report immunity
#: rests on task ids never recurring: a worker that outlives one run
#: (tcp connections stay warm across a resume) must not see
#: a later run reuse ``<pid>-000001``, or its zombie report would be
#: mistaken for the new task's.
_RUN_SEQ = itertools.count()


class UnitTimeoutError(TimeoutError):
    """A campaign unit exceeded its :class:`FaultPolicy` wall-clock budget."""


@dataclass(frozen=True)
class TrialChunk:
    """A contiguous range of trials of a campaign rooted at ``seed``."""

    seed: int
    start: int
    stop: int

    def __len__(self):
        return self.stop - self.start

    @property
    def indices(self):
        """The trial indices this chunk covers, as a range."""
        return range(self.start, self.stop)

    def seed_sequences(self):
        """One independent seed stream per trial in the chunk."""
        return [trial_seed_sequence(self.seed, i) for i in self.indices]

    def rngs(self):
        """One independent :class:`numpy.random.Generator` per trial."""
        return [np.random.default_rng(ss) for ss in self.seed_sequences()]

    def integers(self, *highs):
        """Per-trial ``rng.integers(0, high)`` draws for every trial at once.

        Row ``k`` equals drawing ``highs`` in order from ``self.rngs()[k]``
        (see :func:`repro.runtime.seeding.trial_integers`), without
        building a Generator per trial.
        """
        return trial_integers(self.seed, self.indices, highs)


def chunk_bounds(n_trials, chunk_size=DEFAULT_CHUNK_SIZE):
    """Split ``range(n_trials)`` into ``[start, stop)`` chunk bounds."""
    if n_trials < 0:
        raise ValueError("n_trials must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    return [
        (start, min(start + chunk_size, n_trials))
        for start in range(0, n_trials, chunk_size)
    ]


class ChunkSource:
    """Lazy :class:`TrialChunk` unit source — units exist only on demand.

    Nothing about a chunk depends on its neighbours, so unit ``i`` is a
    pure function of ``(seed, chunk_size, n_trials, i)`` and a
     10M-trial campaign costs O(window) memory, not O(n).
    """

    def __init__(self, seed, n_trials, chunk_size):
        if n_trials < 0:
            raise ValueError("n_trials must be non-negative")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.seed = seed
        self.n_trials = int(n_trials)
        self.chunk_size = int(chunk_size)

    def __len__(self):
        return -(-self.n_trials // self.chunk_size)

    def _bounds(self, i):
        start = i * self.chunk_size
        return start, min(start + self.chunk_size, self.n_trials)

    def item(self, i):
        """The :class:`TrialChunk` at unit index ``i``."""
        start, stop = self._bounds(i)
        return TrialChunk(self.seed, start, stop)

    def key(self, i):
        """The unit's cache-key coordinates."""
        start, stop = self._bounds(i)
        return ("trials", self.seed, start, stop)

    def weight(self, i):
        """Trials carried by unit ``i``."""
        start, stop = self._bounds(i)
        return stop - start

    @property
    def total_weight(self):
        """Trials across the whole campaign."""
        return self.n_trials


class ListSource:
    """Materialized unit source for :meth:`CampaignRunner.map` items."""

    def __init__(self, items, item_keys):
        self.items = list(items)
        self.item_keys = list(item_keys)

    def __len__(self):
        return len(self.items)

    def item(self, i):
        """The mapped item at unit index ``i``."""
        return self.items[i]

    def key(self, i):
        """The unit's cache-key coordinates."""
        return self.item_keys[i]

    def weight(self, i):
        """Mapped items count one trial each."""
        return 1

    @property
    def total_weight(self):
        """Trials across the whole campaign (one per item)."""
        return len(self.items)


@dataclass
class _TaskState:
    """Scheduler-side bookkeeping for one in-flight transport task."""

    task: object
    remaining: set = field(default_factory=set)
    deadline: float = None  # monotonic; armed when a worker claims the task


class CampaignScheduler:
    """One campaign execution: the control loop described in the module.

    Instantiated per run by :class:`~repro.runtime.runner.CampaignRunner`
    (which owns the public API, validation, and the campaign-level
    events); everything here mutates the runner's :class:`RunStats` in
    place so existing accounting contracts hold unchanged.
    """

    def __init__(self, *, worker, source, base_key, unit_is_batch, jobs,
                 cache, progress, classify, policy, resume, transport,
                 owns_transport, stats):
        self.worker = worker
        self.source = source
        self.base_key = base_key
        self.unit_is_batch = unit_is_batch
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.classify = classify
        self.policy = policy
        self.resume = resume
        self.transport = transport
        self.owns_transport = owns_transport
        self.stats = stats

        n = len(source)
        self._n = n
        self._results = [None] * n
        self._cursor = 0  # next unit index to admit
        # Adaptive-source seams (all optional — static sources are
        # untouched): ``on_result`` receives every committed unit,
        # ``available`` bounds admission to the units the source can
        # generate right now, ``exhausted`` ends the campaign early.
        self._on_result = getattr(source, "on_result", None)
        self._available = getattr(source, "available", None)
        self._ready = []  # (ready_at, seq, unit) min-heap
        self._seq = itertools.count()
        self._attempts = {}  # unit -> failed attempts so far
        self._requeues = {}  # unit -> times its worker was lost around it
        self._items = {}  # unit -> payload, while outstanding
        self._digests = {}  # unit -> cache digest, while outstanding
        self._tasks = {}  # task_id -> _TaskState
        self._unit_task = {}  # unit -> task_id
        self._task_prefix = f"{os.getpid():x}-{next(_RUN_SEQ):x}"
        self._task_seq = 0
        self._ema_unit_s = None
        self._probed = False
        self._workers_seen = {}  # worker id -> last heartbeat payload
        self._done_trials = 0
        self._started = None
        self._journal = None
        self._key = None  # unit key -> cache digest, hashing base_key once

    # -- small helpers ---------------------------------------------------
    @property
    def _mode(self):
        """The ``unit.submit`` mode tag (inline keeps the legacy name)."""
        return "serial" if self.transport.name == "inline" else self.transport.name

    def _cache_deltas(self):
        if self.cache is None:
            return 0, 0
        return (self.cache.stats.hits - self._hits0,
                self.cache.stats.misses - self._misses0)

    def _observe(self, i, result):
        self._results[i] = result
        self._done_trials += self.source.weight(i)
        if self.classify is not None:
            for r in result if self.unit_is_batch else (result,):
                label = self.classify(r)
                self.stats.histogram[label] = self.stats.histogram.get(label, 0) + 1
        if self._on_result is not None:
            # Commit-time feedback: fires exactly once per unit, for
            # cache hits and fresh executions alike, so an adaptive
            # source sees the same outcome stream on a resume as on the
            # original run.
            self._on_result(i, result)

    def _emit_progress(self):
        stats = self.stats
        stats.elapsed_s = time.perf_counter() - self._started
        stats.cache_hits, stats.cache_misses = self._cache_deltas()
        stats.workers = dict(self._workers_seen)
        if self.progress is not None:
            self.progress(ProgressEvent(
                done=self._done_trials,
                total=stats.total_trials,
                cached=stats.cached_trials,
                elapsed_s=stats.elapsed_s,
                trials_per_sec=stats.trials_per_sec,
                histogram=dict(stats.histogram),
                cache_hits=stats.cache_hits,
                cache_misses=stats.cache_misses,
                retries=stats.retries,
                pool_respawns=stats.pool_respawns,
                workers=dict(self._workers_seen),
            ))

    def _open_journal(self):
        """The campaign's journal, or ``None`` when no cache is attached."""
        if self.cache is None:
            return None
        self._key = self.cache.keyer(self.base_key)
        journal = self.cache.journal(
            stable_digest("campaign", self.base_key, self._n)
        )
        if self.resume and journal.completed:
            obs.inc("runtime.fault.resumed")
        return journal

    def _register_failure(self, i, exc):
        """Account one failed attempt; re-raise when retries are spent.

        Returns the backoff delay (seconds) before the next attempt.
        """
        self._attempts[i] = self._attempts.get(i, 0) + 1
        if self._attempts[i] > self.policy.max_retries:
            obs.inc("runtime.fault.exhausted")
            obs.emit("unit.exhausted", unit=i, attempts=self._attempts[i],
                     error=type(exc).__name__)
            raise exc
        self.stats.retries += 1
        obs.inc("runtime.fault.retries")
        delay = self.policy.backoff_s(i, self._attempts[i])
        obs.emit("unit.retry", unit=i, attempt=self._attempts[i],
                 backoff_s=delay, error=type(exc).__name__)
        return delay

    # -- admission -------------------------------------------------------
    def _admission_window(self):
        capacity = max(self.jobs, 1) * self.policy.max_units_per_task
        return max(2 * capacity, MIN_ADMISSION_WINDOW)

    def _outstanding(self):
        return len(self._ready) + len(self._unit_task)

    def _admit_limit(self):
        """Units the source allows admitted so far (adaptive sources cap it)."""
        if self._available is None:
            return self._n
        return min(self._n, int(self._available()))

    def _admit(self):
        """Generate units up to the window; satisfy cache hits in place."""
        stats = self.stats
        window = self._admission_window()
        found_cached = False
        # The limit is re-read every iteration: committing a cache hit
        # below feeds ``on_result``, which may unlock the next round of
        # an adaptive source mid-scan (this is how resume replays an
        # entire steered campaign from the cache in one pass).
        while self._cursor < self._admit_limit() and self._outstanding() < window:
            i = self._cursor
            self._cursor += 1
            w = self.source.weight(i)
            if self.cache is not None:
                digest = self._key(self.source.key(i))
                value = self.cache.get(digest)
                if value is not MISS:
                    journaled = digest in self._journal
                    obs.emit("cache.hit", unit=i, trials=w, journaled=journaled)
                    self._observe(i, value)
                    stats.cached_trials += w
                    stats.units_cached += 1
                    if journaled:
                        stats.journaled_units += 1
                        stats.journaled_trials += w
                    found_cached = True
                    continue
                obs.emit("cache.miss", unit=i, trials=w)
                self._digests[i] = digest
            self._items[i] = self.source.item(i)
            heapq.heappush(self._ready, (0.0, next(self._seq), i))
        if found_cached:
            self._emit_progress()

    # -- dispatch --------------------------------------------------------
    def _group_size(self):
        if self.policy.unit_timeout_s:
            return 1  # per-unit deadlines need per-unit tasks
        if self._ema_unit_s is None:
            return 1  # no latency sample yet: probe with single units
        est = max(self._ema_unit_s, 1e-6)
        size = int(TARGET_TASK_S / est)
        return max(1, min(size, self.policy.max_units_per_task))

    def _next_task_id(self):
        self._task_seq += 1
        return f"{self._task_prefix}-{self._task_seq:06x}"

    def _probe_picklability(self, task):
        """Decline process transports for workloads that cannot travel.

        Probed once, on the first task, exactly like the monolithic
        runner's upfront probe: pickling errors swap execution to the
        inline transport (recorded as a serial fallback); anything else
        the probe raises is a genuine workload error and propagates.
        """
        if self._probed or not self.transport.requires_pickling:
            return
        self._probed = True
        try:
            pickle.dumps((self.worker, task.items))
        except PICKLING_ERRORS as exc:
            self.stats.fallback_reason = f"{type(exc).__name__}: {exc}"
            self.stats.jobs_used = 1
            obs.inc("runtime.fault.serial_fallback")
            self._close_transport()
            self.transport = InlineTransport()
            self.owns_transport = True
            self.transport.open(self._ctx)

    def _dispatch(self, now):
        """Group ready units into tasks while the transport has slots."""
        from repro.runtime.transports import Task

        while (self._ready and self._ready[0][0] <= now
               and self.transport.slots() > 0):
            batch = []
            limit = self._group_size()
            while (self._ready and self._ready[0][0] <= now
                   and len(batch) < limit):
                _, _, i = heapq.heappop(self._ready)
                batch.append(i)
            task = Task(
                task_id=self._next_task_id(),
                indices=tuple(batch),
                items=tuple(self._items[i] for i in batch),
            )
            self._probe_picklability(task)  # may swap to inline
            mode = self._mode
            for i in batch:
                obs.emit("unit.submit", unit=i, mode=mode)
            self._tasks[task.task_id] = _TaskState(
                task=task, remaining=set(batch)
            )
            for i in batch:
                self._unit_task[i] = task.task_id
            self.transport.submit(task)

    # -- outcome handling ------------------------------------------------
    def _resolve_unit(self, i):
        """Detach unit ``i`` from its task; False for stale outcomes."""
        task_id = self._unit_task.pop(i, None)
        if task_id is None:
            return False
        state = self._tasks.get(task_id)
        if state is not None:
            state.remaining.discard(i)
            if not state.remaining:
                del self._tasks[task_id]
        return True

    def _finish(self, i, outcome):
        """Commit a freshly executed unit: stats, cache, journal."""
        stats = self.stats
        w = self.source.weight(i)
        obs.emit("unit.finish", unit=i, trials=w, worker=outcome.worker)
        if outcome.worker is not None:
            # Attribution survives even on runs too short for a
            # heartbeat scan: the outcome itself names its executor.
            seen = self._workers_seen.setdefault(outcome.worker, {})
            seen["units_done"] = seen.get("units_done", 0) + 1
        self._observe(i, outcome.value)
        stats.executed_trials += w
        stats.units_executed += 1
        digest = self._digests.pop(i, None)
        self._items.pop(i, None)
        if self.cache is not None and digest is not None:
            self.cache.put(digest, outcome.value)
            if digest not in self._journal:
                self._journal.mark(digest, attempts=self._attempts.get(i, 0))
        self._emit_progress()

    def _handle_outcomes(self, outcomes):
        for outcome in outcomes:
            i = outcome.index
            if not self._resolve_unit(i):
                continue  # stale (task already expired and re-dispatched)
            if outcome.kind == "ok":
                if outcome.elapsed_s is not None:
                    self._note_latency(outcome.elapsed_s)
                obs.absorb(outcome.telemetry)
                self._finish(i, outcome)
            elif outcome.kind == "error":
                delay = self._register_failure(i, outcome.error)
                if self.transport.name == "inline":
                    # The serial path retries depth-first: wait out the
                    # backoff and re-run this unit before any other, as
                    # the monolithic serial loop always did.
                    if delay > 0:
                        time.sleep(delay)
                    heapq.heappush(self._ready, (-1.0, next(self._seq), i))
                else:
                    heapq.heappush(
                        self._ready,
                        (time.monotonic() + delay, next(self._seq), i),
                    )
            else:  # requeue: lost through no fault of its own
                self._requeue(i)

    def _requeue(self, i):
        """Re-dispatch a unit whose worker was lost around it.

        Requeues are innocent and normally free, but they are counted:
        a unit that deterministically kills its worker (OOM, segfault,
        a chaos ``exit`` fate that never stops) produces an unbounded
        requeue/respawn loop, not errors, so past
        ``policy.max_requeues`` the loss is converted into a failure
        and charged against the retry budget.  Repeated requeues of the
        same unit back off like retries do — without consuming retries —
        so a flapping worker cannot hot-loop the scheduler.
        """
        self.stats.requeues += 1
        obs.inc("runtime.fault.requeues")
        count = self._requeues[i] = self._requeues.get(i, 0) + 1
        cap = self.policy.max_requeues
        if cap is not None and count > cap:
            cause = RuntimeError(
                f"unit {i} was requeued {count} times "
                f"(max_requeues={cap}): its workers keep dying around it"
            )
            delay = self._register_failure(i, cause)  # raises when spent
        else:
            delay = self.policy.backoff_s(i, count - 1) if count > 1 else 0.0
            obs.emit("unit.requeue", unit=i, count=count, backoff_s=delay)
        heapq.heappush(
            self._ready, (time.monotonic() + delay, next(self._seq), i)
        )

    def _note_latency(self, elapsed_s):
        if self._ema_unit_s is None:
            self._ema_unit_s = elapsed_s
        else:
            self._ema_unit_s += LATENCY_EMA_ALPHA * (elapsed_s - self._ema_unit_s)

    # -- signal handling -------------------------------------------------
    def _note_respawn(self):
        """Count a worker respawn and keep progress flowing through it."""
        self.stats.pool_respawns += 1
        obs.inc("runtime.fault.pool_respawns")
        obs.emit("worker.respawn", respawns=self.stats.pool_respawns)
        with obs.span("runtime.fault.respawn"):
            self._emit_progress()  # progress still flows during recovery

    def _on_claim(self, signal, now):
        state = self._tasks.get(signal.get("task_id"))
        if state is None:
            return  # claim of an already-expired task: its report is stale
        worker = signal.get("worker")
        for i in sorted(state.remaining):
            obs.emit("unit.claim", unit=i, worker=worker)
        budget = self.policy.unit_timeout_s
        if budget:
            state.deadline = now + budget * max(len(state.task), 1)

    def _on_heartbeat(self, signal):
        worker = signal.get("worker")
        if worker is None:
            return
        self._workers_seen[worker] = {
            key: signal[key]
            for key in ("lag_s", "units_done", "pid")
            if key in signal
        }
        obs.emit("worker.heartbeat", **{"worker": worker, **{
            key: signal[key]
            for key in ("lag_s", "units_done")
            if key in signal
        }})

    def _handle_signals(self, signals, now):
        for signal in signals:
            kind = signal.get("kind")
            if kind == "spawn":
                obs.emit("worker.spawn", workers=signal.get("workers"))
            elif kind == "respawn":
                self._note_respawn()
            elif kind == "claim":
                self._on_claim(signal, now)
            elif kind == "heartbeat":
                self._on_heartbeat(signal)

    # -- deadlines -------------------------------------------------------
    def _check_deadlines(self, now):
        expired = [
            task_id for task_id, state in self._tasks.items()
            if state.deadline is not None and now > state.deadline
        ]
        if not expired:
            return
        budget = self.policy.unit_timeout_s
        for task_id in expired:
            state = self._tasks.pop(task_id)
            for i in sorted(state.remaining):
                self._unit_task.pop(i, None)
                self.stats.timeouts += 1
                obs.inc("runtime.fault.timeouts")
                obs.emit("unit.timeout", unit=i, budget_s=budget)
                cause = UnitTimeoutError(
                    f"unit {i} exceeded its {budget:.3f}s wall-clock budget"
                )
                delay = self._register_failure(i, cause)
                heapq.heappush(
                    self._ready, (now + delay, next(self._seq), i)
                )
        outcomes, signals = self.transport.expire(expired)
        self._handle_outcomes(outcomes)
        self._handle_signals(signals, time.monotonic())

    # -- the loop --------------------------------------------------------
    def _poll_timeout(self, now):
        """How long the transport may block before the next control pass."""
        if self._tasks:
            if (self._ready
                    or getattr(self.transport, "needs_poll_tick", False)
                    or any(s.deadline is not None for s in self._tasks.values())
                    or self.policy.unit_timeout_s):
                return self.policy.poll_interval_s
            return None  # nothing else to watch: block until completion
        if self._ready and self._ready[0][0] > now:
            # Everything is backing off: sleep until the first retry is
            # ready (bounded by the scheduler tick).
            pause = min(max(self._ready[0][0] - now, 0.001),
                        self.policy.poll_interval_s)
            time.sleep(pause)
        return 0.0

    def _close_transport(self):
        self.transport.close()
        if self.owns_transport:
            self.transport.shutdown()

    def run(self):
        """Execute the campaign; returns unit results in campaign order."""
        stats = self.stats
        self._started = time.perf_counter()
        # Cache counter baseline: the attached cache may outlive several
        # runs, so progress events report this run's deltas only.
        self._hits0 = self.cache.stats.hits if self.cache is not None else 0
        self._misses0 = self.cache.stats.misses if self.cache is not None else 0
        self._journal = self._open_journal()
        self._ctx = TransportContext(worker=self.worker, collect=obs.enabled())
        stats.transport = self.transport.name
        try:
            self.transport.open(self._ctx)
            # Described after open so backends report bound resources
            # (e.g. the tcp transport's actual listen port).
            stats.transport_info = self.transport.describe()
            while True:
                self._admit()
                if not self._ready and not self._unit_task:
                    if self._cursor >= self._n:
                        break
                    if getattr(self.source, "exhausted", False):
                        break  # adaptive source stopped early
                    if self._cursor >= self._admit_limit():
                        # Nothing in flight, nothing admissible, source
                        # not done: a deterministic error beats a spin.
                        raise RuntimeError(
                            "unit source stalled: no units available, "
                            "none outstanding, and not exhausted"
                        )
                    continue  # window freed up: admit more
                now = time.monotonic()
                self._dispatch(now)
                timeout = self._poll_timeout(time.monotonic())
                outcomes, signals = self.transport.poll(timeout)
                self._handle_outcomes(outcomes)
                self._handle_signals(signals, time.monotonic())
                self._check_deadlines(time.monotonic())
            self._close_transport()
        except BaseException as exc:
            with contextlib.suppress(Exception):
                self._close_transport()
            if isinstance(exc, KeyboardInterrupt):
                if self._journal is not None:
                    self._journal.note_interrupt()
                obs.inc("runtime.fault.interrupted")
            raise
        finally:
            stats.elapsed_s = time.perf_counter() - self._started
            stats.cache_hits, stats.cache_misses = self._cache_deltas()
            stats.workers = dict(self._workers_seen)

        obs.inc("runtime.runner.units_executed", stats.units_executed)
        obs.inc("runtime.runner.units_cached", stats.units_cached)
        obs.inc("runtime.runner.trials_executed", stats.executed_trials)
        obs.inc("runtime.runner.trials_cached", stats.cached_trials)
        if stats.fallback_reason is not None:
            obs.inc("runtime.runner.serial_fallbacks")
        return self._results
