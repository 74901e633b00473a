"""Inline transport: synchronous in-process execution (the reference).

Every other backend is validated against this one — same units, same
seeds, bit-identical results.  ``submit`` executes the task immediately
in the scheduler's process and buffers its outcomes for the next
``poll``.  Wall-clock budgets are not enforceable here (there is no
other process to kill), matching the historical serial path.
"""

from __future__ import annotations

from repro.runtime.transports.base import (
    Transport,
    _OutcomeBuffer,
    execute_task_units,
)

#: Worker id reported for in-process execution.
LOCAL_WORKER = "local"


class InlineTransport(Transport):
    """Synchronous single-slot transport running units in-process."""

    name = "inline"
    requires_pickling = False

    def __init__(self):
        self._ctx = None
        self._buffer = _OutcomeBuffer()

    def open(self, ctx):
        """Bind to one campaign run."""
        self._ctx = ctx
        self._buffer = _OutcomeBuffer()

    def slots(self):
        """One task at a time, and only once its outcomes were drained."""
        return 0 if self._buffer else 1

    def submit(self, task):
        """Execute the task right now; outcomes surface on the next poll.

        A ``KeyboardInterrupt`` raised mid-unit propagates to the
        scheduler (which journals the interruption), exactly like the
        historical serial path.
        """
        self._buffer.outcomes.extend(execute_task_units(
            self._ctx.worker, task, self._ctx.collect, LOCAL_WORKER
        ))

    def poll(self, timeout):
        """Return the buffered outcomes of the last submission."""
        return self._buffer.drain()

    def expire(self, task_ids):
        """Nothing to expire: submission and completion are atomic here."""
        return [], []

    def close(self):
        """Drop any undrained outcomes."""
        self._buffer = _OutcomeBuffer()
