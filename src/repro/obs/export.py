"""Standard-format exporters for run records: Chrome trace + Prometheus.

Two industry formats, so a recorded campaign drops into existing
tooling instead of demanding bespoke viewers:

:func:`chrome_trace`
    Chrome trace-event JSON (the format Perfetto / ``chrome://tracing``
    load).  The span tree is *aggregated* — one node per span name with
    a call count and a wall-time total, no per-call timestamps — so the
    exporter synthesizes a serialized timeline: every node becomes one
    complete (``"ph": "X"``) slice whose duration is its aggregated
    total, children laid out back-to-back inside their parent.  Because
    worker subtrees are re-parented sums, a parent is widened to contain
    its children when their totals exceed its own wall time (parallel
    work rendered serially); the slice ``args`` carry the honest
    numbers.  Flight-recorder events ride along as instant
    (``"ph": "i"``) events on a second track with *real* relative
    timestamps.

:func:`prometheus_text`
    Prometheus text exposition format (one scrape's worth): counters as
    ``*_total``, gauges verbatim, histograms as summaries with
    ``quantile`` labels from the bounded reservoir, plus a ``run_info``
    gauge carrying the run id / experiment / version labels.  Feed it to
    ``promtool``, node-exporter's textfile collector, or a pushgateway.

Both are pure functions of a loaded run record (plus, optionally, the
event list), wired to ``python -m repro report <run> --trace-out /
--prom-out`` and validated in CI by ``scripts/check_obs_exports.py``.
"""

from __future__ import annotations

import json
import re

from repro.obs.events import TRIAL_COLUMNS
from repro.obs.metrics import QUANTILES

#: Synthetic pid/tid layout of the Chrome trace: aggregated span slices
#: on one track, flight-recorder instants on another.
SPAN_PID, EVENT_PID = 1, 2

_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _effective_s(node):
    """Slice duration: a node's total, widened to contain its children.

    Re-parented worker subtrees sum wall time across processes, so a
    ``runtime.campaign`` of 1 s can hold 4 s of per-worker chunk spans;
    a timeline slice must still nest them.
    """
    child_sum = sum(_effective_s(c) for c in node.get("children", ()))
    return max(node.get("total_s", 0.0), child_sum)


def _span_slices(node, start_s, out):
    out.append({
        "name": node.get("name", "?"),
        "ph": "X",
        "ts": round(start_s * 1e6, 3),
        "dur": round(_effective_s(node) * 1e6, 3),
        "pid": SPAN_PID,
        "tid": 1,
        "cat": "span",
        "args": {
            "count": node.get("count", 0),
            "total_s": node.get("total_s", 0.0),
            **(node.get("attrs") or {}),
        },
    })
    cursor = start_s
    for child in node.get("children", ()):
        _span_slices(child, cursor, out)
        cursor += _effective_s(child)


def chrome_trace(record, events=None):
    """Build a Chrome trace-event document from a loaded run record.

    ``events`` (an iterable of flight-recorder events, e.g. from
    :func:`repro.obs.events.read_events`) is optional; when given, each
    event becomes an instant on its own track, timed relative to the
    first event.  Returns a JSON-ready dict — ``json.dump`` it into a
    file Perfetto can open directly.
    """
    meta = record.get("meta", {})
    run_id = meta.get("run_id", "?")
    trace_events = [
        {"name": "process_name", "ph": "M", "pid": SPAN_PID, "tid": 1,
         "args": {"name": f"spans (aggregated): {run_id}"}},
        {"name": "thread_name", "ph": "M", "pid": SPAN_PID, "tid": 1,
         "args": {"name": "serialized span tree"}},
    ]
    root = record.get("spans", {}).get("root")
    if root:
        # The synthetic "run" root carries no time of its own; lay its
        # children out back-to-back from t=0.
        cursor = 0.0
        for child in root.get("children", ()):
            _span_slices(child, cursor, trace_events)
            cursor += _effective_s(child)
    events = list(events or ())
    if events:
        trace_events.append(
            {"name": "process_name", "ph": "M", "pid": EVENT_PID, "tid": 1,
             "args": {"name": f"flight recorder: {run_id}"}}
        )
        t0 = events[0].get("t", 0.0)
        for event in events:
            trace_events.append({
                "name": event.get("ev", "?"),
                "ph": "i",
                "s": "t",
                "ts": round((event.get("t", t0) - t0) * 1e6, 3),
                "pid": EVENT_PID,
                "tid": 1,
                "cat": "event",
                "args": {
                    k: v for k, v in event.items()
                    if k not in ("ev", "t", *TRIAL_COLUMNS)
                    and not isinstance(v, (list, dict))
                },
            })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "run_id": run_id,
            "experiment": meta.get("name", "?"),
            "elapsed_s": meta.get("elapsed_s", 0.0),
        },
    }


def write_chrome_trace(record, path, events=None):
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(record, events=events), fh)
        fh.write("\n")
    return path


# -- Prometheus ----------------------------------------------------------
def _metric_name(name, suffix=""):
    """``layer.component.metric`` -> ``repro_layer_component_metric``."""
    return "repro_" + _METRIC_CHARS.sub("_", name) + suffix


def _escape_label(value):
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _format_value(value):
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(float(value)) if isinstance(value, float) else str(value)
    return "NaN"  # non-numeric gauge: exposed as present-but-unknown


def prometheus_text(record):
    """Render a run record's metrics in Prometheus text format.

    One scrape's worth of samples: every counter (``*_total``), gauge,
    and histogram summary in the record's metrics snapshot, plus
    ``repro_run_info`` / ``repro_run_elapsed_seconds`` derived from the
    meta line.  Passes ``scripts/check_obs_exports.py``'s line grammar
    (a subset of the official exposition format).
    """
    meta = record.get("meta", {})
    metrics = record.get("metrics", {})
    lines = [
        "# HELP repro_run_info Run identity (value is always 1).",
        "# TYPE repro_run_info gauge",
        'repro_run_info{{run_id="{}",experiment="{}",version="{}"}} 1'.format(
            _escape_label(meta.get("run_id", "?")),
            _escape_label(meta.get("name", "?")),
            _escape_label(meta.get("version", "?")),
        ),
        "# HELP repro_run_elapsed_seconds Recorded wall time of the run.",
        "# TYPE repro_run_elapsed_seconds gauge",
        f"repro_run_elapsed_seconds {_format_value(meta.get('elapsed_s', 0.0))}",
    ]
    for name, value in sorted(metrics.get("counters", {}).items()):
        base = _metric_name(name, "_total")
        lines.append(f"# HELP {base} Counter {name} from the run record.")
        lines.append(f"# TYPE {base} counter")
        lines.append(f"{base} {_format_value(value)}")
    for name, value in sorted(metrics.get("gauges", {}).items()):
        base = _metric_name(name)
        lines.append(f"# HELP {base} Gauge {name} from the run record.")
        lines.append(f"# TYPE {base} gauge")
        lines.append(f"{base} {_format_value(value)}")
    for name, stat in sorted(metrics.get("histograms", {}).items()):
        base = _metric_name(name)
        lines.append(f"# HELP {base} Histogram {name} from the run record.")
        lines.append(f"# TYPE {base} summary")
        for label, q in QUANTILES:
            if stat.get(label) is not None:
                lines.append(
                    f'{base}{{quantile="{q}"}} {_format_value(stat[label])}'
                )
        lines.append(f"{base}_sum {_format_value(stat.get('total', 0.0))}")
        lines.append(f"{base}_count {_format_value(stat.get('count', 0))}")
    return "\n".join(lines) + "\n"


def write_prometheus_text(record, path):
    """Serialize :func:`prometheus_text` to ``path``; returns the path."""
    with open(path, "w") as fh:
        fh.write(prometheus_text(record))
    return path
