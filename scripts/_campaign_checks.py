"""Helpers shared by the campaign acceptance checks.

``chaos_resume_check.py`` and ``dist_smoke_check.py`` both interrupt a
fault-injection campaign with a real ``SIGINT`` and compare records by
digest; both import these from here (``scripts/`` is on ``sys.path``
when a script in it runs).
"""

from __future__ import annotations

import hashlib
import json
import signal


class SigintAfter:
    """Progress callback that delivers a real SIGINT after ``n`` events."""

    def __init__(self, n):
        self.n = n
        self.seen = 0

    def __call__(self, event):
        self.seen += 1
        if self.seen == self.n:
            signal.raise_signal(signal.SIGINT)


def campaign_digest(result):
    """SHA-256 over every field of every record, in trial order.

    Canonical JSON, not pickle: pickle memoizes repeated string
    *objects*, so value-equal records serialize differently depending on
    whether they came from the cache or from a live worker.
    """
    payload = json.dumps(
        [
            (r.program, r.cycle, r.element, r.bit, r.outcome.value,
             r.pc_at_injection, r.opcode_at_injection)
            for r in result.records
        ],
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(payload).hexdigest()
