"""Cross-layer observability: tracing spans, metrics, structured run records.

Every layer of this library — transistor aging models, circuit STA,
architecture fault injection, system managers, the shared campaign
runtime — is instrumented against this package, so one recorded run
shows *where* time and work went across abstraction layers instead of
reporting a single final number.

Four pillars (see ``docs/observability.md`` for the guide):

:mod:`repro.obs.trace`
    Hierarchical :func:`span`\\ s built on :mod:`contextvars`; aggregated
    into a bounded per-run span tree that nests across layer boundaries
    and is re-parented onto the parent tree when campaign workers run in
    separate processes.
:mod:`repro.obs.metrics`
    Process-global counters/gauges/histograms named
    ``layer.component.metric`` (:func:`inc`, :func:`set_gauge`,
    :func:`observe`), merged across worker processes.
:mod:`repro.obs.events`
    The flight recorder: a sequential structured event stream
    (:func:`emit`) appended to ``events.jsonl`` beside the run record —
    per-unit scheduling/fault-tolerance events, per-trial FI
    coordinate/classification rows, worker heartbeats.  ``python -m
    repro watch <run-dir>`` tails it live (:mod:`repro.obs.watch`).
:mod:`repro.obs.record`
    :class:`RunRecorder` writes one JSONL run record per campaign
    (config digest, seed root, span tree, metrics snapshot, outcome
    histogram, cache stats, package version); ``python -m repro report
    <run-dir>`` renders it (:mod:`repro.obs.report`), exports it as a
    Chrome trace / Prometheus text (:mod:`repro.obs.export`), and
    compares two runs (:mod:`repro.obs.diff`).

Everything is **off by default**: an instrumented call site costs one
flag check until :func:`enable` (or a :class:`RunRecorder`) turns
collection on, which is what keeps the instrumented hot paths within the
library's performance budget.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro._lazy import lazy_exports
from repro.obs.events import (
    EVENTS_FILENAME,
    EventLog,
    iter_events,
    read_events,
    trial_columns,
    trial_rows,
)
from repro.obs.metrics import HistogramStat, MetricsRegistry, layer_of
from repro.obs.trace import SpanNode, Tracer, span_shape

#: Process-global collectors.  One tracer + one registry + one event log
#: per process; worker processes get fresh state through :func:`capture`.
TRACER = Tracer()
METRICS = MetricsRegistry()
EVENTS = EventLog()

#: Campaign summaries noted by the runtime layer during the current run
#: (one dict per `CampaignRunner` invocation; see ``note_campaign``).
_CAMPAIGNS = []


# -- switch -------------------------------------------------------------
def enable():
    """Turn span/metric/event collection on (idempotent)."""
    TRACER.enabled = True
    METRICS.enabled = True
    EVENTS.enabled = True


def disable():
    """Turn collection off; instrumented call sites go back to no-ops."""
    TRACER.enabled = False
    METRICS.enabled = False
    EVENTS.enabled = False


def enabled():
    """Whether collection is currently on."""
    return TRACER.enabled


def reset():
    """Drop all collected spans, metrics, events, and campaign notes."""
    TRACER.reset()
    METRICS.reset()
    EVENTS.reset()
    del _CAMPAIGNS[:]


@contextmanager
def collecting():
    """Enable collection for a ``with`` block, restoring the prior state."""
    was = enabled()
    reset()
    enable()
    try:
        yield
    finally:
        if not was:
            disable()


# -- bound instruments --------------------------------------------------
def span(name, **attrs):
    """Open a trace span ``layer.component[.detail]`` as a context manager."""
    return TRACER.span(name, **attrs)


def inc(name, amount=1):
    """Increment counter ``name`` by ``amount``."""
    METRICS.inc(name, amount)


def set_gauge(name, value):
    """Set gauge ``name``."""
    METRICS.set_gauge(name, value)


def observe(name, value):
    """Feed ``value`` into histogram ``name``."""
    METRICS.observe(name, value)


def emit(ev, **fields):
    """Append one structured event to the flight-recorder stream."""
    EVENTS.emit(ev, **fields)


def span_tree():
    """JSON-ready snapshot of the current span tree (root included)."""
    return TRACER.snapshot()


def metrics_snapshot():
    """JSON-ready snapshot of all metrics."""
    return METRICS.snapshot()


def note_campaign(info):
    """Record one campaign/runner summary dict into the current run."""
    if enabled():
        _CAMPAIGNS.append(dict(info))


def campaign_notes():
    """Campaign summaries noted since the last :func:`reset`."""
    return [dict(c) for c in _CAMPAIGNS]


# -- worker propagation -------------------------------------------------
class Capture:
    """Holds the telemetry a :func:`capture` block collected."""

    def __init__(self):
        self.snapshot = None


@contextmanager
def capture():
    """Collect spans/metrics of a block into a detached snapshot.

    Used by the campaign runtime inside worker processes: the worker
    executes its unit of work under a fresh tree/registry, and the
    resulting snapshot travels back with the unit result so the parent
    process can :func:`absorb` it.  Collection must already be enabled
    (the runner bakes the parent's flag into the worker call).
    """
    cap = Capture()
    prev_root = TRACER.root
    prev_token = TRACER._active.set(None)
    prev_metrics = (METRICS.counters, METRICS.gauges, METRICS.histograms)
    prev_campaigns = list(_CAMPAIGNS)
    prev_events = EVENTS.drain()
    prev_sink = EVENTS.detach_sink()  # forked workers inherit the parent's
    TRACER.root = SpanNode(Tracer.ROOT_NAME)
    METRICS.reset()
    del _CAMPAIGNS[:]
    try:
        yield cap
    finally:
        cap.snapshot = {
            "spans": TRACER.snapshot()["children"],
            "metrics": METRICS.snapshot(),
            "campaigns": campaign_notes(),
            "events": EVENTS.drain(),
        }
        TRACER.root = prev_root
        TRACER._active.reset(prev_token)
        METRICS.counters, METRICS.gauges, METRICS.histograms = prev_metrics
        _CAMPAIGNS[:] = prev_campaigns
        EVENTS.reattach_sink(prev_sink)
        EVENTS._buffer[:0] = prev_events  # restore, don't re-account


def absorb(snapshot):
    """Merge a worker's :func:`capture` snapshot into this process.

    Worker span subtrees are re-parented under the *currently active*
    span (e.g. the runner's ``runtime.campaign``), so the merged tree has
    the same shape a serial run would have produced.
    """
    if snapshot is None:
        return
    TRACER.absorb_children(snapshot.get("spans", ()))
    METRICS.merge(snapshot.get("metrics", {}))
    _CAMPAIGNS.extend(dict(c) for c in snapshot.get("campaigns", ()))
    EVENTS.absorb(snapshot.get("events", ()))


#: Run-record readers: public name -> defining module, imported on first
#: use, so a process that only collects never loads them.
_EXPORTS = {
    "RUN_RECORD_SCHEMA": "record",
    "RunRecorder": "record",
    "config_digest": "record",
    "list_runs": "record",
    "load_run_record": "record",
    "resolve_record_path": "record",
    "verify_record": "record",
    "layer_breakdown": "report",
    "render_report": "report",
    "diff_records": "diff",
    "render_diff": "diff",
    "chrome_trace": "export",
    "prometheus_text": "export",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "TRACER",
    "METRICS",
    "EVENTS",
    "EVENTS_FILENAME",
    "EventLog",
    "emit",
    "iter_events",
    "read_events",
    "trial_columns",
    "trial_rows",
    "verify_record",
    "chrome_trace",
    "prometheus_text",
    "diff_records",
    "render_diff",
    "list_runs",
    "resolve_record_path",
    "enable",
    "disable",
    "enabled",
    "reset",
    "collecting",
    "span",
    "inc",
    "set_gauge",
    "observe",
    "span_tree",
    "metrics_snapshot",
    "note_campaign",
    "campaign_notes",
    "capture",
    "absorb",
    "Capture",
    "SpanNode",
    "Tracer",
    "span_shape",
    "HistogramStat",
    "MetricsRegistry",
    "layer_of",
    "RUN_RECORD_SCHEMA",
    "RunRecorder",
    "config_digest",
    "load_run_record",
    "layer_breakdown",
    "render_report",
]
