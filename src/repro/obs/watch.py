"""Live campaign view: tail a run's ``events.jsonl`` while it executes.

``python -m repro watch <run-dir>`` follows the flight-recorder stream
a :class:`~repro.obs.record.RunRecorder` writes and keeps one status
line per update: progress, executed-trial throughput, ETA, cache and
fault-tolerance activity, the outcome histogram so far, and stragglers
(units in flight far longer than the finished median, named with the
worker executing them when claim/heartbeat events identify it).  The math is the
runner's own :class:`~repro.runtime.telemetry.ProgressEvent` — the
watcher just reconstructs the runner's accounting from the event stream
instead of a callback, which is what makes it work from *any* process,
on a live run or a finished one (``--once``).

The tailer is torn-line safe (a partially appended line is retried on
the next poll, never mis-parsed) and stops on the recorder's
``stream.close`` event.
"""

from __future__ import annotations

import json
import sys
import time

from repro.runtime.telemetry import ProgressEvent, format_progress

#: A unit in flight this many times longer than the median finished
#: unit is reported as a straggler.
STRAGGLER_FACTOR = 4.0


class EventTail:
    """Incremental reader of an append-only JSONL file.

    Keeps a byte offset and a partial-line buffer, so each :meth:`poll`
    returns only the complete events appended since the previous one —
    a torn tail (the writer mid-append) stays buffered until its
    newline arrives.
    """

    def __init__(self, path):
        self.path = path
        self._offset = 0
        self._partial = ""

    def poll(self):
        """Parse and return the events appended since the last poll."""
        try:
            with open(self.path) as fh:
                fh.seek(self._offset)
                chunk = fh.read()
                self._offset = fh.tell()
        except OSError:
            return []
        if not chunk:
            return []
        data = self._partial + chunk
        lines = data.split("\n")
        self._partial = lines.pop()  # "" on a clean trailing newline
        events = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # corrupt line: skip, keep tailing
        return events


class WatchState:
    """Runner accounting reconstructed from the flight-recorder stream."""

    def __init__(self):
        self.total_trials = 0
        self.done_trials = 0
        self.cached_trials = 0
        self.executed_trials = 0
        self.retries = 0
        self.timeouts = 0
        self.respawns = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.histogram = {}
        self.closed = False
        self.run_id = None
        self.t_first = None
        self.t_last = None
        self.workers = {}  # worker id -> {"last_t": t, "units_done": n}
        self._inflight = {}  # unit index -> submit time
        self._unit_worker = {}  # unit index -> executing worker id
        self._unit_durations = []

    def consume(self, events):
        """Fold a batch of events into the running accounting."""
        for event in events:
            self._consume_one(event)

    def _consume_one(self, event):
        ev = event.get("ev")
        t = event.get("t")
        if t is not None:
            if self.t_first is None:
                self.t_first = t
            self.t_last = t
        if ev == "stream.open":
            self.run_id = event.get("run_id")
        elif ev == "stream.close":
            self.closed = True
        elif ev == "campaign.begin":
            self.total_trials += event.get("trials", 0)
        elif ev == "unit.submit":
            self._inflight[event.get("unit")] = t
        elif ev == "unit.claim":
            self._attribute(event.get("unit"), event.get("worker"), t)
        elif ev == "unit.finish":
            unit = event.get("unit")
            started = self._inflight.pop(unit, None)
            if started is not None and t is not None:
                self._unit_durations.append(t - started)
            self._attribute(unit, event.get("worker"), t, finished=True)
            self._unit_worker.pop(unit, None)
            self.done_trials += event.get("trials", 0)
            self.executed_trials += event.get("trials", 0)
        elif ev == "cache.hit":
            self.cache_hits += 1
            self.done_trials += event.get("trials", 0)
            self.cached_trials += event.get("trials", 0)
        elif ev == "cache.miss":
            self.cache_misses += 1
        elif ev == "unit.retry":
            self.retries += 1
        elif ev == "unit.timeout":
            self.timeouts += 1
        elif ev == "worker.respawn":
            self.respawns += 1
        elif ev == "worker.heartbeat":
            self._attribute(event.get("unit"), event.get("worker"), t)
        elif ev == "fi.trials":
            for label in event.get("outcome", "").split():
                self.histogram[label] = self.histogram.get(label, 0) + 1

    def _attribute(self, unit, worker, t, finished=False):
        """Record which worker touched which unit (straggler naming)."""
        if worker is None:
            return
        info = self.workers.setdefault(worker, {"last_t": t, "units_done": 0})
        if t is not None:
            info["last_t"] = t
        if finished:
            info["units_done"] += 1
        elif unit is not None:
            self._unit_worker[unit] = worker

    @property
    def elapsed_s(self):
        if self.t_first is None or self.t_last is None:
            return 0.0
        return max(self.t_last - self.t_first, 0.0)

    def progress_event(self):
        """The stream's accounting as a runner :class:`ProgressEvent`."""
        elapsed = self.elapsed_s
        rate = self.executed_trials / elapsed if elapsed > 0 else 0.0
        return ProgressEvent(
            done=self.done_trials,
            total=max(self.total_trials, self.done_trials),
            cached=self.cached_trials,
            elapsed_s=elapsed,
            trials_per_sec=rate,
            histogram=dict(self.histogram),
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            retries=self.retries,
            pool_respawns=self.respawns,
            workers={w: dict(info) for w, info in self.workers.items()},
        )

    def stragglers(self, now=None):
        """Unit indices in flight > STRAGGLER_FACTOR x the finished median."""
        if not self._inflight or not self._unit_durations:
            return []
        now = self.t_last if now is None else now
        ordered = sorted(self._unit_durations)
        median = ordered[len(ordered) // 2]
        limit = max(median * STRAGGLER_FACTOR, 1e-3)
        return sorted(
            unit for unit, started in self._inflight.items()
            if started is not None and now - started > limit
        )

    def straggler_label(self, unit):
        """``"<unit>@<worker>"`` when the executing worker is known."""
        worker = self._unit_worker.get(unit)
        return f"{unit}@{worker}" if worker is not None else str(unit)

    def status_line(self, now=None):
        """One human-readable status line for the current state."""
        return format_progress(
            self.progress_event(),
            timeouts=self.timeouts,
            stragglers=[self.straggler_label(u) for u in self.stragglers(now)],
            finished=self.closed,
        )


def watch(events_path, follow=True, poll_s=0.5, stream=None, max_polls=None):
    """Tail ``events_path`` and print a live status line per update.

    Stops when the recorder closes the stream (``stream.close``), on
    ``--once`` semantics (``follow=False``: read what exists, print one
    line), after ``max_polls`` polls (tests), or on Ctrl-C.  Returns
    the final :class:`WatchState`.
    """
    stream = stream if stream is not None else sys.stderr
    tail = EventTail(events_path)
    state = WatchState()
    polls = 0
    try:
        while True:
            events = tail.poll()
            if events:
                state.consume(events)
                print(state.status_line(now=time.time()), file=stream)
            polls += 1
            if state.closed or not follow:
                break
            if max_polls is not None and polls >= max_polls:
                break
            time.sleep(poll_s)
    except KeyboardInterrupt:
        pass
    return state
