"""Synthetic latency-bound campaign workloads for fabric benchmarks.

The distributed-fabric benchmark (``dist_scaling`` in
``benchmarks/perf_smoke.py``, recorded in ``BENCH_smoke.json``)
measures how campaign throughput scales with *worker count*, which is
a property of the scheduler/transport fabric, not of the CPU: on a
one-core CI runner a CPU-bound unit cannot go faster with more
processes, but a latency-bound unit — one dominated by I/O-style
waiting, like a device measurement or an RPC — pipelines across
workers exactly as queueing theory predicts (throughput ≈ workers /
unit latency, until the core saturates).

:class:`LatencyWorker` models such a unit: a fixed sleep followed by a
deterministic per-trial draw, so runs stay bit-identical across
transports while the timing is dominated by the wait.  It lives here,
in an importable module, because benchmark scripts run as ``__main__``
— whose attributes a spawned ``python -m repro worker`` process can
never resolve when unpickling a tcp campaign payload (see
``docs/distributed.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyWorker:
    """Chunk worker that waits ``latency_s``, then draws one value per trial.

    With ``latency_s=0`` the draw is all that remains (a few
    microseconds), which makes an inline run of many one-trial chunks a
    direct measurement of the scheduler's own per-unit overhead.
    """

    latency_s: float = 0.02

    def __call__(self, chunk):
        """Simulate one latency-bound unit: sleep, then draw per trial."""
        if self.latency_s > 0:
            time.sleep(self.latency_s)
        return [float(rng.random()) for rng in chunk.rngs()]
