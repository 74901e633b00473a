"""Progress and telemetry hooks for campaign execution.

The runner emits one :class:`ProgressEvent` per completed unit of work
(a trial chunk or a sweep item) to whatever callback it was given.
Events carry the running trial throughput, an ETA estimate, the result
cache's hit/miss counters for this run, and the outcome histogram so
far, so a long fault-injection campaign can be watched live without the
runner knowing anything about outcome taxonomies — callers supply a
``classify`` function that maps one result to a histogram label.

Two ready-made consumers:

* :class:`ProgressLog` — records every event (tests, notebooks);
* :func:`print_progress` — one-line-per-event stderr printer used by the
  CLI's ``--progress`` flag.

Both the printer and ``repro watch`` render events with the one
formatter :func:`format_progress`.

Deeper visibility (where time went per layer, metric counters, durable
run records) lives in :mod:`repro.obs`; the runner feeds both.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ProgressEvent:
    """Snapshot of a campaign after one unit of work completed."""

    done: int  # trials finished so far (cached + executed)
    total: int  # trials in the whole campaign
    cached: int  # trials satisfied from the result cache
    elapsed_s: float  # wall time since the runner started
    trials_per_sec: float  # executed-trial throughput (cache hits excluded)
    histogram: dict  # label -> count over all finished trials
    cache_hits: int = 0  # ResultCache unit hits during this run
    cache_misses: int = 0  # ResultCache unit misses during this run
    retries: int = 0  # unit re-executions after failures/timeouts so far
    pool_respawns: int = 0  # local worker processes replaced so far
    workers: dict = field(default_factory=dict)  # worker id -> last heartbeat info

    @property
    def fraction(self):
        """Completed fraction in [0, 1]; an empty campaign counts as done."""
        return self.done / self.total if self.total else 1.0

    @property
    def executed(self):
        """Trials that actually ran (everything not served from cache)."""
        return self.done - self.cached

    @property
    def eta_s(self):
        """Estimated seconds to finish the remaining trials.

        ``None`` until at least one trial has executed — when everything
        so far came from the cache there is no throughput to extrapolate
        from.  Cached trials include units journaled by a previous
        (interrupted) run, so a resumed campaign's ETA extrapolates from
        this run's executed-trial throughput only — replayed units never
        inflate the rate.
        """
        if self.trials_per_sec <= 0.0 or self.executed <= 0:
            return None
        return (self.total - self.done) / self.trials_per_sec


@dataclass
class ProgressLog:
    """Callback that stores every event, for tests and offline analysis."""

    events: list = field(default_factory=list)

    def __call__(self, event):
        self.events.append(event)

    @property
    def last(self):
        """The most recent ProgressEvent, or None before the first one."""
        return self.events[-1] if self.events else None


def _format_eta(seconds):
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def format_progress(event, timeouts=0, stragglers=(), finished=False):
    """One human-readable status line for a :class:`ProgressEvent`.

    ``timeouts``, ``stragglers`` (unit labels) and ``finished`` are
    facts only a watcher of the event stream knows; the live
    ``--progress`` hook leaves them at their defaults.  Workers are
    shown only when more than one ran.
    """
    if event.executed <= 0:
        # Nothing has actually run — a trials/sec figure would be
        # meaningless, so say where the results are coming from instead.
        rate = "all from cache" if event.cached else "starting"
    else:
        rate = f"{event.trials_per_sec:.1f} trials/s"
        if event.done < event.total and event.eta_s is not None:
            rate += f", eta {_format_eta(event.eta_s)}"
    parts = [rate, f"{event.cached} cached"]
    if event.cache_hits or event.cache_misses:
        parts.append(f"cache {event.cache_hits}h/{event.cache_misses}m")
    if event.retries:
        parts.append(f"{event.retries} retries")
    if timeouts:
        parts.append(f"{timeouts} timeouts")
    if event.pool_respawns:
        parts.append(f"{event.pool_respawns} respawns")
    if len(event.workers) > 1:
        parts.append(f"{len(event.workers)} workers")
    if stragglers:
        parts.append(f"stragglers: unit {','.join(stragglers[:4])}")
    line = f"[{event.done}/{event.total}] " + ", ".join(parts)
    hist = " ".join(f"{k}={v}" for k, v in sorted(event.histogram.items()))
    if hist:
        line += f" | {hist}"
    if finished:
        line += " | run finished"
    return line


def print_progress(event, stream=None):
    """Print one progress line per event (the CLI ``--progress`` hook)."""
    print(format_progress(event),
          file=stream if stream is not None else sys.stderr)
