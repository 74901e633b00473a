"""Structured run records: one JSONL file per recorded campaign.

A *run record* is the durable artifact of one observed run: what was
run (config + digest, seed root, package version), what happened
(outcome histogram, campaign/cache accounting), and where time went
(the span tree and metrics snapshot).  It is written as JSONL — one
self-describing object per line, each with a ``"type"`` field — so the
schema can grow without breaking old readers and a truncated file still
parses line by line:

.. code-block:: text

    {"type": "meta",      "schema": 1, "run_id": ..., "config_digest": ..., ...}
    {"type": "spans",     "root": {...span tree...}}
    {"type": "metrics",   "counters": {...}, "gauges": {...}, "histograms": {...}}
    {"type": "campaigns", "campaigns": [{...runner accounting...}, ...]}
    {"type": "outcomes",  "histogram": {...label -> count...}}

:class:`RunRecorder` is the writer (and the switch: entering it enables
collection); :func:`load_run_record` is the reader the ``repro report``
CLI uses, and :func:`verify_record` checks a record against its own
event stream and counters (``repro report PATH --check``).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from collections import Counter
from pathlib import Path

import repro.obs as obs
from repro.obs.events import EVENTS_FILENAME, EVENTS_SCHEMA, read_events, trial_rows
from repro.obs.report import layer_breakdown

#: Bump when a record line's fields change incompatibly.
RUN_RECORD_SCHEMA = 1

#: Counters of the batched engine's trial paths: every trial it records
#: is out of the golden window, pruned as dead, a register trial or a
#: ``pc``/``ir`` trial, exactly one of them.
ENGINE_PATHS = tuple(f"arch.fi.engine.{name}" for name in (
    "out_of_window", "pruned_dead", "batch.lanes", "batch.offtrace_trials",
))

RECORD_FILENAME = "record.jsonl"


def config_digest(config):
    """Short content digest of a run's configuration mapping.

    Permissive on value types (falls back to ``repr``) — unlike cache
    keys, a run record digest only needs to *identify* a configuration,
    never to guarantee collision-free addressing.
    """
    payload = json.dumps(config, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class RunRecorder:
    """Record one run's telemetry to ``<base_dir>/<run_id>/record.jsonl``.

    Entering the recorder resets and enables :mod:`repro.obs` collection
    and binds the flight-recorder event stream to ``events.jsonl`` in the
    same run directory (so events land on disk *while* the run executes —
    ``python -m repro watch <run-dir>`` tails them); leaving it writes
    the record and restores the previous on/off state.

    Parameters
    ----------
    base_dir:
        Directory that holds run directories (created on demand).
    name:
        Experiment/campaign name; becomes part of the run id.
    config:
        Mapping describing the run (CLI args, study parameters); digested
        into ``config_digest``.
    seed:
        The root seed the run's deterministic streams derive from.
    run_id:
        Override the generated ``<name>-<timestamp>-<pid>`` id.
    """

    def __init__(self, base_dir, name, config=None, seed=None, run_id=None):
        self.name = name
        self.config = dict(config or {})
        self.seed = seed
        if run_id is None:
            stamp = time.strftime("%Y%m%d-%H%M%S")
            run_id = f"{name}-{stamp}-{os.getpid()}"
            # Back-to-back runs in the same second (and process) would
            # collide and append into one run directory; uniquify.
            base = run_id
            n = 2
            while (Path(base_dir) / run_id).exists():
                run_id = f"{base}-{n}"
                n += 1
        self.run_id = run_id
        self.run_dir = Path(base_dir) / run_id
        self.path = self.run_dir / RECORD_FILENAME
        self.events_path = self.run_dir / EVENTS_FILENAME
        self._was_enabled = False
        self._t0 = None
        self._started = None

    # -- context manager -------------------------------------------------
    def __enter__(self):
        self._was_enabled = obs.enabled()
        obs.reset()
        obs.enable()
        self._started = time.strftime("%Y-%m-%dT%H:%M:%S")
        self._t0 = time.perf_counter()
        self.run_dir.mkdir(parents=True, exist_ok=True)
        obs.EVENTS.bind(self.events_path)
        obs.emit("stream.open", schema=EVENTS_SCHEMA, run_id=self.run_id,
                 name=self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            status = "ok" if exc_type is None else f"error: {exc_type.__name__}"
            obs.emit("stream.close", status=status)
            obs.EVENTS.unbind()
            self.write(elapsed_s=time.perf_counter() - self._t0, status=status)
        finally:
            if not self._was_enabled:
                obs.disable()
        return False

    # -- writing ---------------------------------------------------------
    def _lines(self, elapsed_s, status):
        import repro

        campaigns = obs.campaign_notes()
        outcomes = {}
        for campaign in campaigns:
            for label, count in campaign.get("histogram", {}).items():
                outcomes[label] = outcomes.get(label, 0) + count
        yield {
            "type": "meta",
            "schema": RUN_RECORD_SCHEMA,
            "run_id": self.run_id,
            "name": self.name,
            "version": repro.__version__,
            "config": self.config,
            "config_digest": config_digest(self.config),
            "seed_root": self.seed,
            "started": self._started,
            "elapsed_s": elapsed_s,
            "status": status,
            "events_file": EVENTS_FILENAME,
            "events_emitted": obs.EVENTS.emitted,
            "events_dropped": obs.EVENTS.dropped,
        }
        yield {"type": "spans", "root": obs.span_tree()}
        yield {"type": "metrics", **obs.metrics_snapshot()}
        yield {"type": "campaigns", "campaigns": campaigns}
        yield {"type": "outcomes", "histogram": outcomes}

    def write(self, elapsed_s=0.0, status="ok"):
        """Serialize the current telemetry state; returns the record path."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            for line in self._lines(elapsed_s, status):
                fh.write(json.dumps(line, sort_keys=True, default=repr) + "\n")
        os.replace(tmp, self.path)
        return self.path


def resolve_record_path(path):
    """Resolve a record file, run dir, or base dir to ``(path, how)``.

    ``how`` says what kind of argument was given: ``"file"`` (the
    ``record.jsonl`` itself), ``"run-dir"`` (a directory holding one),
    or ``"base-dir"`` (a directory of run directories — the newest
    record wins, so callers should tell the user which one was picked).
    """
    path = Path(path)
    if path.is_file():
        return path, "file"
    direct = path / RECORD_FILENAME
    if direct.is_file():
        return direct, "run-dir"
    candidates = sorted(
        path.glob(f"*/{RECORD_FILENAME}"), key=lambda p: p.stat().st_mtime
    )
    if candidates:
        return candidates[-1], "base-dir"  # newest run under the base
    raise FileNotFoundError(f"no {RECORD_FILENAME} found under {path}")


def load_run_record(path):
    """Parse a run record into ``{"meta": ..., "spans": ..., ...}``.

    ``path`` may be the ``record.jsonl`` file itself, a run directory, or
    a base directory holding several run directories (the newest record
    wins — handy for ``repro report runs/`` right after a recorded run).

    A torn tail — a truncated final JSONL line left by a killed or
    out-of-disk writer — is tolerated with a warning, mirroring the
    result cache's torn-tail rule: every line that parsed is kept, reading
    stops at the first line that does not.
    """
    record_path, _ = resolve_record_path(path)
    record = {"path": str(record_path)}
    with open(record_path) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:
                warnings.warn(
                    f"{record_path}: torn trailing line (killed writer?); "
                    f"keeping the {len(record) - 1} sections that parsed",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
            kind = line.pop("type", None)
            if kind:
                record[kind] = line
    return record


def list_runs(base_dir):
    """One summary dict per run record under ``base_dir``, oldest first.

    Accepts a base directory of run directories (the layout ``--record``
    produces) or a single run directory.  Each summary carries the keys
    the ``repro report --list`` table prints: ``run_id``, ``name``,
    ``started``, ``elapsed_s``, ``status``, ``trials`` (total outcome
    count), and ``path``.
    """
    base = Path(base_dir)
    candidates = sorted(
        base.glob(f"*/{RECORD_FILENAME}"), key=lambda p: p.stat().st_mtime
    )
    direct = base / RECORD_FILENAME
    if direct.is_file():
        candidates.insert(0, direct)
    if not candidates:
        raise FileNotFoundError(f"no {RECORD_FILENAME} found under {base}")
    summaries = []
    for path in candidates:
        record = load_run_record(path)
        meta = record.get("meta", {})
        outcomes = record.get("outcomes", {}).get("histogram", {})
        summaries.append({
            "run_id": meta.get("run_id", path.parent.name),
            "name": meta.get("name", "?"),
            "started": meta.get("started", "?"),
            "elapsed_s": meta.get("elapsed_s", 0.0),
            "status": meta.get("status", "?"),
            "trials": sum(outcomes.values()),
            "path": str(path),
        })
    return summaries


def verify_record(run_dir):
    """Problems found cross-checking one run record; ``[]`` if consistent.

    Every run needs the current schema, status ``ok``, no dropped events
    and non-empty span and metric lines.  An ``fi`` run must also span
    >= 3 layers, have one ``fi.trials`` row per executed (not cached)
    trial, and per outcome as many as the histogram when none was
    cached (never more), and hold
    its configured (steered: executed) trial count, prove no more hangs
    (``arch.fi.engine.hangs_proven``) than it has ``HANG`` rows, count no
    more ``pc`` flips out of the program (``arch.fi.engine.pc_outside``)
    than it has ``CRASH`` rows, and send each batched-engine row down
    exactly one engine path (:data:`ENGINE_PATHS`).  A steered run's
    ``steer.*`` events and ``arch.fi.steering.*`` counters must match its
    resolved summary, with no refit.
    """
    record = load_run_record(run_dir)
    meta = record.get("meta", {})
    config = meta.get("config", {})
    fi = config.get("experiment") == "fi"
    facts = [
        (meta.get("schema"), RUN_RECORD_SCHEMA, "schema"),
        (meta.get("status"), "ok", "status"),
        (meta.get("events_dropped"), 0, "events dropped"),
    ]
    lines = ("spans", "metrics") + (("campaigns", "outcomes") if fi else ())
    missing = [line for line in lines if not record.get(line)]
    facts.append((missing, [], "missing or empty record lines"))
    if fi and not missing:
        path = Path(record["path"]).parent / meta.get("events_file", EVENTS_FILENAME)
        events = read_events(path) if path.is_file() else []
        rows = Counter(row[3] for row in trial_rows(events))
        batched_rows = len(trial_rows(
            e for e in events
            if e.get("ev") == "fi.trials" and e.get("engine") == "batched"))
        counters = record["metrics"].get("counters", {})
        histogram = record["outcomes"]["histogram"]
        campaigns = record["campaigns"]["campaigns"]
        cached = sum(c.get("cached_trials", 0) for c in campaigns)
        steering = config.get("resolved", {}).get("steering") or {}
        facts += [
            (len(layer_breakdown(record["spans"]["root"])) >= 3, True,
             "span tree covers >= 3 layers"),
            (sum(rows.values()),
             sum(c.get("executed_trials", 0) for c in campaigns),
             "fi.trials rows vs executed trials"),
            ({k: v for k, v in rows.items() if v > histogram.get(k, 0)}, {},
             "fi.trials rows beyond the outcome histogram"),
            (sum(histogram.values()),
             steering.get("trials_executed", config.get("trials")),
             "histogram trials vs configured (steered: executed) trials"),
            (bool(steering), bool(config.get("steer")), "resolved steering"),
            (max(0, counters.get("arch.fi.engine.hangs_proven", 0)
                 - rows["hang"]), 0,
             "hangs proven beyond HANG fi.trials rows"),
            (max(0, counters.get("arch.fi.engine.pc_outside", 0)
                 - rows["crash"]), 0,
             "pc flips outside the program beyond CRASH fi.trials rows"),
            (sum(counters.get(name, 0) for name in ENGINE_PATHS), batched_rows,
             "engine path counters vs batched-engine fi.trials rows"),
        ]
        if not cached:
            facts.append((dict(rows), {k: v for k, v in histogram.items() if v},
                          "fi.trials rows vs outcome histogram"))
        if steering:
            facts += _steering_facts(steering, events, record["metrics"],
                                     config.get("trials"))
    return [f"{what}: {got!r} != {want!r}" for got, want, what in facts
            if got != want]


def _steering_facts(steering, events, metrics, budget):
    kinds = Counter(event.get("ev") for event in events)
    stop = next((e for e in events if e.get("ev") == "steer.stop"), {})
    counters = metrics.get("counters", {})
    executed, saved = steering["trials_executed"], steering["trials_saved"]
    return [
        (executed + saved, budget, "trials executed + saved vs budget"),
        (kinds["steer.round"], steering["rounds"], "steer.round events vs rounds"),
        (counters.get("arch.fi.steering.rounds", 0), steering["rounds"],
         "arch.fi.steering.rounds counter vs rounds"),
        (counters.get("arch.fi.steering.trials_saved"), saved,
         "arch.fi.steering.trials_saved counter vs trials_saved"),
        (kinds["steer.stop"], 1, "steer.stop events"),
        (stop.get("trials_saved"), saved, "steer.stop trials_saved"),
        (stop.get("trials_executed"), executed, "steer.stop trials_executed"),
        (kinds["steer.refit"], 0, "steer.refit events"),
        (steering.get("refits"), 0, "refits"),
    ]
