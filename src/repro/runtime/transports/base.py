"""Transport interface: how campaign tasks travel to execution and back.

The :class:`~repro.runtime.scheduler.CampaignScheduler` owns *what* runs
(unit admission, retries, timeouts, the manifest journal, the outcome
histogram); a :class:`Transport` owns *where* it runs.  The split keeps
every fault-tolerance decision in one process — the scheduler — while
execution backends stay swappable:

``inline``
    :class:`~repro.runtime.transports.inline.InlineTransport` — executes
    tasks synchronously in the scheduler's process.  The serial
    reference every other backend must match bit-for-bit.
``pool``
    :class:`~repro.runtime.transports.pool.PoolTransport` — a
    :class:`~concurrent.futures.ProcessPoolExecutor` on the local host.
``tcp``
    :class:`~repro.runtime.transports.tcp.TcpTransport` — a listening
    socket served to ``python -m repro worker --connect HOST:PORT``
    processes over length-prefixed, checksummed pickle frames; the
    backend for hosts that share no filesystem (results stream over
    the wire unless a shared cache is configured).

The protocol is deliberately small.  A transport accepts
:class:`Task`\\ s (one or more units grouped by the scheduler), reports
per-unit :class:`UnitOutcome`\\ s from :meth:`Transport.poll`, and
raises nothing across the boundary: worker failures come back as
``error`` outcomes, lost work comes back as ``requeue`` outcomes, and
lifecycle facts (pool broken/respawned, task claimed, worker heartbeat)
come back as plain signal dicts the scheduler translates into metrics,
events, and policy decisions.  Transports therefore never touch the
retry budget, the manifest, or the result accounting — kill a backend
mid-run and the scheduler still knows exactly which units are
outstanding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs


@dataclass(frozen=True)
class Task:
    """One transport submission: an ordered group of campaign units.

    ``task_id`` is unique per submission *attempt* — a retried or
    requeued unit travels in a fresh task, so a late result from a
    zombie worker (its lease expired, the unit was re-dispatched) can be
    recognized as stale and dropped.
    """

    task_id: str
    indices: tuple  # unit indices, in campaign order
    items: tuple  # the unit payloads (chunks or mapped items)
    digests: tuple  # per-unit cache digests (None when uncached)

    def __len__(self):
        return len(self.indices)


@dataclass
class UnitOutcome:
    """What happened to one unit of one task.

    ``kind`` is one of:

    ``"ok"``
        ``value`` holds the result; ``telemetry`` the worker's captured
        obs snapshot (``None`` when collection was off or the value was
        produced in-process); ``stored=True`` means the executing worker
        already persisted the value into the shared result cache.
    ``"error"``
        ``error`` holds the exception; counts against the retry budget.
    ``"requeue"``
        The unit was lost through no fault of its own (its pool died
        around it, its worker's connection dropped); the scheduler re-runs
        it without a retry penalty.
    """

    index: int
    kind: str
    value: object = None
    error: BaseException = None
    elapsed_s: float = None  # worker-side wall time (ok outcomes)
    worker: str = None  # executing worker id, for attribution
    telemetry: dict = None
    stored: bool = False


@dataclass
class TransportContext:
    """Everything a transport may need from the scheduler at open time."""

    worker: object  # the unit callable
    collect: bool  # whether obs collection is on in the scheduler
    policy: object  # the campaign FaultPolicy
    cache: object  # shared ResultCache (None when uncached)
    jobs: int  # requested parallelism


class Transport:
    """Base class: lifecycle + submission protocol (see module docstring).

    Subclasses implement :meth:`open`, :meth:`slots`, :meth:`submit`,
    :meth:`poll`, :meth:`expire`, and :meth:`close`.  ``poll`` returns
    ``(outcomes, signals)`` where signals are dicts with a ``kind`` key:

    ``{"kind": "spawn", "workers": n}``
        Execution capacity came up.
    ``{"kind": "broken"}``
        The backend lost its workers (counted, not penalized).
    ``{"kind": "respawn"}``
        The backend replaced lost workers.
    ``{"kind": "degraded"}``
        The backend gave up; the scheduler falls back to inline.
    ``{"kind": "claim", "task_id": t, "worker": w}``
        A remote worker leased a task (starts its lease clock).
    ``{"kind": "heartbeat", "worker": w, "lag_s": s, ...}``
        A worker liveness report, attributed by worker id.
    """

    #: Registry name; also the ``mode`` tag on ``unit.submit`` events.
    name = "base"

    #: Whether tasks cross a process boundary (drives the picklability
    #: probe and its serial fallback in the scheduler).
    requires_pickling = False

    #: When the scheduler arms a task's wall-clock deadline: ``"submit"``
    #: (work starts promptly — process pool), ``"claim"`` (work starts
    #: when a worker leases the task — tcp), or ``None`` (no
    #: enforceable deadline — inline).
    deadline_mode = None

    #: Whether :meth:`poll` must be called on a periodic tick even when
    #: nothing else demands one (backends with out-of-band signals such
    #: as heartbeats and claims).
    needs_poll_tick = False

    def open(self, ctx: TransportContext):
        """Bind to one campaign run; called before any submission."""
        raise NotImplementedError

    def slots(self):
        """How many more tasks may be submitted right now."""
        raise NotImplementedError

    def submit(self, task: Task):
        """Accept one task for execution (must not raise on backend loss)."""
        raise NotImplementedError

    def poll(self, timeout):
        """Collect ``(outcomes, signals)``, waiting at most ``timeout`` s."""
        raise NotImplementedError

    def expire(self, task_ids):
        """Abandon hung/leased-out tasks; returns ``(outcomes, signals)``.

        The given tasks are forgotten — the scheduler has already
        penalized their units — but a backend that must destroy shared
        state to do so (a process pool has no per-task kill) reports the
        innocent bystander units it dropped as ``requeue`` outcomes.
        """
        raise NotImplementedError

    def close(self, hard=False):
        """End the campaign run; ``hard`` kills outstanding work."""
        raise NotImplementedError

    def shutdown(self):
        """Release everything the transport owns (spawned workers, ...).

        Separate from :meth:`close` so a transport instance can be
        reused across several campaign runs (open/close per run) before
        being shut down once at the end.
        """
        self.close(hard=True)

    def describe(self):
        """One JSON-able dict describing the backend (for run records)."""
        return {"transport": self.name}


def execute_task_units(worker, task, collect, worker_id):
    """Run one task's units in order; the shared worker-side loop.

    Used verbatim by every backend (inline in-process, pool workers,
    tcp workers), which is what keeps their results bit-identical:
    the unit callable sees exactly the same payloads in the same order
    no matter where it runs.  Each unit is timed (feeding the
    scheduler's adaptive task sizing) and, when ``collect`` is set,
    executed under :func:`repro.obs.capture` so its spans, metrics, and
    events travel back to the scheduler with the outcome.  A unit
    failure never poisons its task: the exception rides back as an
    ``error`` outcome and the remaining units still execute.
    """
    outcomes = []
    for index, item in zip(task.indices, task.items):
        telemetry = None
        started = time.perf_counter()
        if collect:
            obs.enable()
            with obs.capture() as cap:
                obs.emit("worker.heartbeat", worker=worker_id, unit=index)
                try:
                    value, error = worker(item), None
                except Exception as exc:
                    value, error = None, exc
            if error is None:
                telemetry = cap.snapshot
        else:
            try:
                value, error = worker(item), None
            except Exception as exc:
                value, error = None, exc
        outcomes.append(UnitOutcome(
            index=index,
            kind="ok" if error is None else "error",
            value=value,
            error=error,
            elapsed_s=time.perf_counter() - started,
            worker=worker_id,
            telemetry=telemetry,
        ))
    return outcomes


@dataclass
class _OutcomeBuffer:
    """Shared helper: outcomes/signals accumulated between polls."""

    outcomes: list = field(default_factory=list)
    signals: list = field(default_factory=list)

    def drain(self):
        """Return and clear the buffered ``(outcomes, signals)``."""
        out, sig = self.outcomes, self.signals
        self.outcomes, self.signals = [], []
        return out, sig

    def __bool__(self):
        return bool(self.outcomes or self.signals)
