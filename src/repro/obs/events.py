"""Campaign flight recorder: a bounded-overhead structured event stream.

Where spans and metrics are *aggregated* telemetry (one node per span
name, one counter per metric), the event log is the *sequential* record
of a run: one JSON object per noteworthy occurrence, appended to
``events.jsonl`` beside the run record.  It is what makes a campaign
observable **while it runs** (``python -m repro watch <run-dir>`` tails
it) and what later analysis trains on — a fault-injection campaign
streams one row per trial with its ``(cycle, element, bit)`` coordinate
and outcome classification, exactly the supervision a learned
injection-steering surrogate needs.

Event grammar
-------------

Every event is one JSON object with three standard fields plus
type-specific payload fields:

``ev``
    The event type, dot-namespaced (``"unit.finish"``, ``"fi.trials"``).
``t``
    Unix wall-clock seconds (``time.time()``) at emission.
``pid``
    The emitting process (campaign workers emit from their own pid; the
    parent re-parents their events into the stream on absorb, preserving
    ``t``/``pid``).

Emitted event types (see ``docs/observability.md`` for the full table):

========================  ====================================================
``stream.open/close``     written by the binding :class:`~repro.obs.record.
                          RunRecorder` around the run (``schema``, ``run_id``)
``campaign.begin/end``    one campaign invocation (units, trials, jobs;
                          executed/cached splits and histogram at the end)
``unit.submit/finish``    one unit of work entered / left execution
                          (``finish`` carries ``worker``, the executing
                          worker id, for straggler attribution)
``unit.claim``            a tcp worker leased a unit (``worker``
                          names the claimant; starts its lease clock)
``unit.retry/timeout``    fault-tolerance activity on a unit
``cache.hit/miss``        unit-level result-cache traffic during the scan
``worker.spawn/respawn``  tcp worker lifecycle (forked or reconnected)
``worker.heartbeat``      worker liveness, attributed by ``worker`` id —
                          emitted per executed unit, and relayed from
                          tcp workers' heartbeat messages with their
                          reporting lag (``lag_s``)
``fi.ladder``             snapshot-ladder stats of a FI engine build
``fi.trials``             per-trial FI rows: ``items`` is a list of
                          ``[cycle, element, bit, outcome]`` coordinates +
                          classifications (one row per trial, framed per
                          chunk so emission cost amortizes)
========================  ====================================================

Bounded overhead is the design contract: events are only built while
collection is enabled (one flag check otherwise), high-rate per-trial
data rides in per-chunk ``fi.trials`` frames instead of per-trial
objects, sink writes are flushed every :data:`FLUSH_EVERY` lines (so a
``watch`` tail stays live without an fsync per event), and a sink-less
log (worker processes, ad-hoc ``obs.enable()`` sessions) buffers at most
:data:`MAX_BUFFERED_EVENTS` events, counting — not accumulating — the
overflow in :attr:`EventLog.dropped`.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

#: Filename of the event stream inside a run directory.
EVENTS_FILENAME = "events.jsonl"

#: Bump when an event's standard fields change incompatibly.
EVENTS_SCHEMA = 1

#: Sink-bound logs flush after this many buffered lines, bounding both
#: the syscall rate and how stale a live ``watch`` tail can be.
FLUSH_EVERY = 64

#: Cap on a sink-less log's in-memory buffer (worker processes hold at
#: most one unit's events; this cap only guards ad-hoc enabled sessions).
MAX_BUFFERED_EVENTS = 65536


class EventLog:
    """One process's event stream: buffered, optionally bound to a file.

    The parent process of a recorded run binds the log to
    ``<run-dir>/events.jsonl`` (write-through with batched flushes);
    worker processes run unbound and hand their buffered events back to
    the parent through the :func:`repro.obs.capture` snapshot.
    """

    def __init__(self):
        self.enabled = False
        self.emitted = 0  # events accepted since the last reset
        self.dropped = 0  # events discarded by the sink-less buffer cap
        self._buffer = []
        self._sink = None
        self._unflushed = 0

    # -- emission --------------------------------------------------------
    def emit(self, ev, **fields):
        """Append one event (no-op while disabled)."""
        if not self.enabled:
            return
        event = {"ev": ev, "t": time.time(), "pid": os.getpid()}
        event.update(fields)
        self._append(event)

    def _append(self, event):
        self.emitted += 1
        if self._sink is not None:
            self._sink.write(json.dumps(event, default=repr) + "\n")
            self._unflushed += 1
            if self._unflushed >= FLUSH_EVERY:
                self.flush()
        elif len(self._buffer) < MAX_BUFFERED_EVENTS:
            self._buffer.append(event)
        else:
            self.dropped += 1

    def absorb(self, events):
        """Fold a worker's buffered events into this log, in their order.

        Events keep their original ``t``/``pid`` — the stream records
        when and where work happened, not when the parent heard about it.
        """
        for event in events:
            self._append(event)

    # -- sink binding ----------------------------------------------------
    def bind(self, path):
        """Write-through to ``path`` (append mode), draining the buffer."""
        self.unbind()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._sink = open(path, "a")
        if self._buffer:
            buffered, self._buffer = self._buffer, []
            for event in buffered:
                self._sink.write(json.dumps(event, default=repr) + "\n")
        self.flush()

    def detach_sink(self):
        """Stop writing through without closing; returns the handle.

        :func:`repro.obs.capture` detaches for its duration so captured
        events travel home in the snapshot, never into a sink from the
        wrong process.
        """
        sink, self._sink = self._sink, None
        return sink

    def reattach_sink(self, sink):
        """Restore a handle from :meth:`detach_sink` (no-op when rebound)."""
        if self._sink is None:
            self._sink = sink

    def unbind(self):
        """Flush and close the sink; the log keeps collecting in memory."""
        if self._sink is not None:
            try:
                self.flush()
                self._sink.close()
            except OSError:
                pass
            self._sink = None

    def flush(self):
        """Push buffered sink writes to the OS (``watch`` reads from here)."""
        if self._sink is not None:
            try:
                self._sink.flush()
            except OSError:
                pass
        self._unflushed = 0

    @property
    def bound(self):
        """Whether the log is currently writing through to a file."""
        return self._sink is not None

    # -- lifecycle -------------------------------------------------------
    def drain(self):
        """Detach and return the buffered events (worker capture path)."""
        events, self._buffer = self._buffer, []
        return events

    def reset(self):
        """Drop buffered events and counters; an open sink stays open."""
        self._buffer = []
        self.emitted = 0
        self.dropped = 0


# -- reading -------------------------------------------------------------
def iter_events(path):
    """Yield parsed events from an ``events.jsonl`` file, oldest first.

    Tolerates a torn tail (a truncated final line from a killed writer)
    by stopping at the first unparsable line — the manifest journal's
    rule, applied to the event stream.
    """
    with open(path) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                yield json.loads(raw)
            except json.JSONDecodeError:
                return


def read_events(path):
    """All events of one stream as a list (see :func:`iter_events`)."""
    return list(iter_events(path))


def trial_rows(events):
    """Flatten ``fi.trials`` frames into per-trial rows.

    Returns ``[(cycle, element, bit, outcome), ...]`` in emission order —
    the training-ready view of a recorded fault-injection campaign.
    """
    rows = []
    for event in events:
        if event.get("ev") == "fi.trials":
            rows.extend(tuple(item) for item in event.get("items", ()))
    return rows
