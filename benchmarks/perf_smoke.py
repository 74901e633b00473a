"""Perf-smoke harness for what ``perfbench/`` does not measure.

Five benches, one record (``BENCH_smoke.json``), one gate table:

* ``fig5_fig6_sweep`` and ``wall_ablation`` time the Sec. V Fig. 5/6
  Monte Carlo sweep and the wall-ablation hit-rate grid on both the
  batched numpy kernels and the scalar reference path (same seeds,
  ``jobs=1``, no cache), verifying the scalar-vs-batched equivalence
  contract (``docs/performance.md``).
* ``dist_scaling`` times a latency-bound campaign
  (:class:`repro.runtime.loadgen.LatencyWorker`) over the ``tcp``
  transport at 1, 2 and 4 workers, every run bit-identical to the
  inline reference (``docs/distributed.md``).
* ``sched_overhead`` times the scheduler's own per-unit bookkeeping on
  the inline fast path.
* ``obs_overhead`` times a fault-injection campaign with recording off
  vs on (``docs/observability.md``).

:data:`GATES` holds each bench's gated field and bound; :func:`gate`
applies it, plus a more-than-:data:`REGRESSION_FACTOR` ``speedup`` drop
against a baseline record's newest entry.  The FI engine and steering
are held by ``perfbench/`` and tier-1 tests instead.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py
    PYTHONPATH=src python benchmarks/perf_smoke.py \\
        --check BENCH_smoke.json --output out/BENCH_smoke.json

Exit status is non-zero when an equivalence contract or a gate fails.
"""

from __future__ import annotations

import argparse
import datetime
import json
import operator
import os
import pathlib
import platform
import sys
import time

import numpy as np

from repro.core import (
    CheckpointSystem,
    MonteCarloStudy,
    WCET,
    adpcm_like_workload,
    simulate_run,
    simulate_runs_batch,
)
from repro.core.montecarlo import DEFAULT_ERROR_PROBS

SCHEMA = 2
# Bench scale: Monte Carlo runs per level, obs-overhead campaign trials,
# latency-bound units per dist run, and timing rounds (median recorded).
RUNS = 100
TRIALS = 400
DIST_UNITS = 48
ROUNDS = 3
WALL_PROBS = (1e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4)
WALL_SPEEDS = (2.0, 4.0, 8.0)
HIT_RATE_TOLERANCE = 0.15
# Obs workload: matmul with a 1.5x hang budget, so hang trials do not
# dominate the campaign (docs/performance.md, "The fault-injection engine").
FI_HANG_BUDGET_FACTOR = 1.5
# Dist-fabric shape: worker counts to sweep and the simulated unit
# latency (latency-bound units pipeline across workers even on one core,
# which is what the fabric — not the CPU — provides), and the unit count
# of the scheduler-overhead measurement.
DIST_WORKER_COUNTS = (1, 2, 4)
DIST_UNIT_LATENCY_S = 0.02
SCHED_OVERHEAD_UNITS = 512

#: bench -> (gated field, comparison the value must satisfy, bound).
GATES = {
    "fig5_fig6_sweep": ("speedup", ">=", 5.0),
    "wall_ablation": ("speedup", ">=", 5.0),
    "dist_scaling": ("speedup", ">=", 2.0),
    "sched_overhead": ("overhead_us_per_unit", "<=", 500.0),
    "obs_overhead": ("overhead", "<=", 0.05),
}
_COMPARE = {">=": operator.ge, "<=": operator.le}
#: Allowed ``speedup`` drop against the baseline's newest entry.
REGRESSION_FACTOR = 2.0
# Scale-determining result keys: the drift check skips a bench whose
# baseline ran at a different scale (speedups are scale-dependent).
SCALE_KEYS = ("n_runs", "n_units")


def _timed(fn, rounds):
    """Median wall-clock of ``rounds`` calls, plus the last return value."""
    times = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), result


def _study(n_runs, kernel):
    return MonteCarloStudy(
        adpcm_like_workload(n_segments=12, seed=0),
        n_runs=n_runs,
        seed=0,
        kernel=kernel,
    )


def bench_fig5_fig6_sweep(n_runs, rounds):
    """The headline bench: the full default-grid Fig. 5 + Fig. 6 sweep."""
    probs = list(DEFAULT_ERROR_PROBS)
    batched = _study(n_runs, "auto")
    scalar = _study(n_runs, "scalar")
    batched_s, batched_pts = _timed(
        lambda: batched.sweep(probs, jobs=1, cache=None), rounds
    )
    scalar_s, scalar_pts = _timed(
        lambda: scalar.sweep(probs, jobs=1, cache=None), rounds
    )

    # Equivalence contract (docs/performance.md): Fig. 5 statistic is
    # draw-for-draw identical, hit rates distribution-equivalent,
    # analytic curves bit-identical.
    deltas = []
    for pb, ps in zip(batched_pts, scalar_pts):
        if pb.mean_rollbacks_per_segment != ps.mean_rollbacks_per_segment:
            raise AssertionError(
                f"fig5 statistic diverged at p={pb.error_probability:.0e}"
            )
        deltas.extend(
            abs(pb.hit_rate[name] - ps.hit_rate[name]) for name in pb.hit_rate
        )
    if max(deltas) > HIT_RATE_TOLERANCE:
        raise AssertionError(
            f"hit-rate delta {max(deltas):.3f} exceeds {HIT_RATE_TOLERANCE}"
        )
    if not np.array_equal(
        batched.analytic_rollbacks(probs), scalar.analytic_rollbacks(probs)
    ):
        raise AssertionError("analytic curves are kernel-dependent")

    return {
        "batched_s": batched_s,
        "scalar_s": scalar_s,
        "speedup": scalar_s / batched_s,
        "levels": len(probs),
        "n_runs": n_runs,
        "max_hit_rate_delta": max(deltas),
    }


def _wall_grid_batched(workload, n_runs):
    rates = []
    for max_speed in WALL_SPEEDS:
        for p in WALL_PROBS:
            batch = simulate_runs_batch(
                workload,
                CheckpointSystem(p),
                WCET,
                np.random.default_rng(0),
                n_runs,
                max_speed=max_speed,
            )
            rates.append(float(np.mean(batch.deadline_met)))
    return rates


def _wall_grid_scalar(workload, n_runs):
    rates = []
    for max_speed in WALL_SPEEDS:
        for p in WALL_PROBS:
            cp = CheckpointSystem(p)
            rng = np.random.default_rng(0)
            hits = sum(
                simulate_run(
                    workload, cp, WCET, rng, max_speed=max_speed
                ).deadline_met
                for _ in range(n_runs)
            )
            rates.append(hits / n_runs)
    return rates


def bench_wall_ablation(n_runs, rounds):
    """The wall-ablation grid: WCET hit rate over (max speed, p)."""
    workload = adpcm_like_workload(n_segments=12, seed=0)
    batched_s, batched_rates = _timed(
        lambda: _wall_grid_batched(workload, n_runs), rounds
    )
    scalar_s, scalar_rates = _timed(
        lambda: _wall_grid_scalar(workload, n_runs), rounds
    )
    delta = max(abs(a - b) for a, b in zip(batched_rates, scalar_rates))
    if delta > HIT_RATE_TOLERANCE:
        raise AssertionError(
            f"wall grid hit-rate delta {delta:.3f} exceeds {HIT_RATE_TOLERANCE}"
        )
    return {
        "batched_s": batched_s,
        "scalar_s": scalar_s,
        "speedup": scalar_s / batched_s,
        "grid_points": len(batched_rates),
        "n_runs": n_runs,
        "max_hit_rate_delta": delta,
    }


def bench_obs_overhead(n_trials, rounds):
    """Flight-recorder cost: the same campaign with recording off vs on.

    Each round times one batched-engine campaign bare and one under a
    :class:`repro.obs.RunRecorder` (spans + metrics + the per-trial
    ``fi.trials`` event stream, written to a throwaway directory), and
    keeps the per-round on/off ratio — pairing the measurements cancels
    machine drift that would swamp a few-percent effect.  The recorded
    overhead is the median ratio minus one; :data:`GATES` holds it to the
    observability layer's "off by default, cheap when on" budget
    (docs/observability.md).
    """
    import shutil
    import tempfile

    from repro import obs
    from repro.arch import FaultInjector
    from repro.arch import programs as P
    from repro.obs import RunRecorder

    program = P.matmul(5)
    injector = FaultInjector(
        program, engine="batched", max_cycles_factor=FI_HANG_BUDGET_FACTOR
    )
    injector.run_campaign(n_trials=n_trials, seed=0)  # warm the engine
    tmp = tempfile.mkdtemp(prefix="bench-obs-")
    ratios, off_times, on_times = [], [], []
    try:
        for _ in range(rounds):
            obs.disable()
            start = time.perf_counter()
            off_res = injector.run_campaign(n_trials=n_trials, seed=0)
            off_s = time.perf_counter() - start
            with RunRecorder(tmp, name="obs-overhead") as recorder:
                start = time.perf_counter()
                on_res = injector.run_campaign(n_trials=n_trials, seed=0)
                on_s = time.perf_counter() - start
            if off_res.records != on_res.records:
                raise AssertionError("recording changed campaign records")
            events = recorder.events_path.read_text().splitlines()
            ratios.append(on_s / off_s)
            off_times.append(off_s)
            on_times.append(on_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "off_s": float(np.median(off_times)),
        "on_s": float(np.median(on_times)),
        "overhead": float(np.median(ratios)) - 1.0,
        "events_per_run": len(events),
        "n_trials": n_trials,
        "program": program.name,
    }


def bench_dist_scaling(n_units, rounds):
    """Fabric scaling: tcp throughput vs workers, one core.

    Each configuration runs the same latency-bound campaign
    (one-trial units, each sleeping ``DIST_UNIT_LATENCY_S``) after a
    warm-up run that spawns its workers, and every measured run is
    checked bit-identical against the inline reference for its seed.
    The recorded ``speedup`` is the tcp throughput gain from one worker
    to ``DIST_WORKER_COUNTS[-1]`` — the fabric's pipelining factor,
    deliberately independent of CPU count — measured cache-less so
    result values really cross the wire.
    """
    from repro.runtime import CampaignRunner, FaultPolicy
    from repro.runtime.loadgen import LatencyWorker
    from repro.runtime.transports import TcpTransport

    worker = LatencyWorker(DIST_UNIT_LATENCY_S)
    # One unit per task keeps the fabric busy with fine-grained claims;
    # tight polls keep the scheduler tick out of the measurement.
    policy = FaultPolicy(max_units_per_task=1, poll_interval_s=0.005,
                         backoff_base_s=0.001)
    seeds = list(range(1, rounds + 1))

    def runner(transport=None):
        return CampaignRunner(chunk_size=1, policy=policy, transport=transport)

    references, inline_times = {}, []
    for seed in seeds:
        start = time.perf_counter()
        references[seed] = runner().run_trials(worker, n_units, seed=seed)
        inline_times.append(time.perf_counter() - start)
    inline_s = float(np.median(inline_times))

    def timed_config(label, transport):
        # Warm-up on its own seed forks the workers so the measured
        # rounds see a steady-state fabric, not worker start-up.
        runner(transport).run_trials(worker, n_units, seed=0)
        times = []
        for seed in seeds:
            start = time.perf_counter()
            out = runner(transport).run_trials(worker, n_units, seed=seed)
            times.append(time.perf_counter() - start)
            if out != references[seed]:
                raise AssertionError(f"{label} diverged from inline")
        return float(np.median(times))

    result = {
        "inline_tput": n_units / inline_s,
        "n_units": n_units,
        "unit_latency_s": DIST_UNIT_LATENCY_S,
        "worker_counts": list(DIST_WORKER_COUNTS),
    }
    for w in DIST_WORKER_COUNTS:
        # No cache: the row times the socket path alone, with no cache
        # writes on the scheduler side.
        transport = TcpTransport(workers=w, poll_s=0.005,
                                 worker_poll_s=0.005)
        try:
            elapsed = timed_config(f"tcp x{w}", transport)
        finally:
            transport.shutdown()
        result[f"tcp_{w}_tput"] = n_units / elapsed
    top = DIST_WORKER_COUNTS[-1]
    result["speedup"] = result[f"tcp_{top}_tput"] / result["tcp_1_tput"]
    return result


def bench_sched_overhead(n_units, rounds):
    """Scheduler bookkeeping cost per unit on the inline fast path.

    Zero-latency one-trial units make the workload a few microseconds,
    so an inline run of ``n_units`` units measures what the scheduler
    itself charges per unit (admission, journal, telemetry).
    """
    from repro.runtime import CampaignRunner, FaultPolicy
    from repro.runtime.loadgen import LatencyWorker

    worker = LatencyWorker(0.0)
    policy = FaultPolicy(max_units_per_task=1)

    def run():
        return CampaignRunner(jobs=1, chunk_size=1, policy=policy).run_trials(
            worker, n_units, seed=0
        )

    elapsed_s, out = _timed(run, rounds)
    if len(out) != n_units:
        raise AssertionError("scheduler-overhead campaign lost trials")
    return {
        "inline_s": elapsed_s,
        "overhead_us_per_unit": elapsed_s / n_units * 1e6,
        "n_units": n_units,
    }


#: bench -> (function, scale argument); every bench runs ROUNDS rounds.
BENCHES = {
    "fig5_fig6_sweep": (bench_fig5_fig6_sweep, RUNS),
    "wall_ablation": (bench_wall_ablation, RUNS),
    "dist_scaling": (bench_dist_scaling, DIST_UNITS),
    "sched_overhead": (bench_sched_overhead, SCHED_OVERHEAD_UNITS),
    "obs_overhead": (bench_obs_overhead, TRIALS),
}


def machine_info():
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _format(value):
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def run_benches():
    """Run every bench once; return the record entry."""
    entry = {
        "schema": SCHEMA,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": machine_info(),
        "config": {"rounds": ROUNDS, "jobs": 1, "cache": False},
        "results": {},
    }
    for name, (bench, scale) in BENCHES.items():
        result = bench(scale, ROUNDS)
        entry["results"][name] = result
        print(f"{name}: " + "  ".join(
            f"{key}={_format(value)}" for key, value in result.items()
        ))
    return entry


def gate(entry, baseline=None):
    """Failure lines for ``entry``; empty when every gate holds.

    Each bench's gated field must satisfy its :data:`GATES` bound.  With
    a ``baseline`` entry, a bench's ``speedup`` also may not drop more
    than :data:`REGRESSION_FACTOR`-fold below the baseline's — a
    within-run ratio, portable across machines where raw wall-clock is
    not.  A bench whose baseline ran at another scale is skipped.
    """
    failures = []
    for name, (field, op, bound) in GATES.items():
        value = entry["results"][name][field]
        if not _COMPARE[op](value, bound):
            failures.append(f"{name}: {field} {value:.4g} is not {op} {bound:g}")
    if baseline is None:
        return failures
    for name, result in entry["results"].items():
        base = baseline["results"].get(name)
        if base is None or "speedup" not in result:
            continue
        scale_diff = [k for k in SCALE_KEYS if base.get(k) != result.get(k)]
        if scale_diff:
            print(f"skip {name} drift check: baseline scale differs "
                  f"({', '.join(f'{k}={base.get(k)}' for k in scale_diff)})")
            continue
        if result["speedup"] * REGRESSION_FACTOR < base["speedup"]:
            failures.append(
                f"{name}: speedup {result['speedup']:.1f}x is more than "
                f"{REGRESSION_FACTOR:g}x below baseline {base['speedup']:.1f}x "
                f"({baseline['created_utc']})"
            )
    return failures


def load_record(path):
    with open(path) as fh:
        record = json.load(fh)
    if record.get("schema") != SCHEMA or "entries" not in record:
        raise ValueError(f"{path} is not a schema-{SCHEMA} BENCH record")
    return record


def append_entry(path, entry):
    path = pathlib.Path(path)
    if path.exists():
        record = load_record(path)
    else:
        record = {"schema": SCHEMA, "benchmark": "perf-smoke", "entries": []}
    record["entries"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time the Sec. V Monte Carlo kernels, the campaign "
                    "fabric and the recorder; gate them and record "
                    "BENCH_smoke.json"
    )
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help=f"also fail on a more than {REGRESSION_FACTOR:g}x "
                             "speedup drop against BASELINE's newest entry")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="append this run's entry to FILE")
    args = parser.parse_args(argv)

    baseline = load_record(args.check)["entries"][-1] if args.check else None
    entry = run_benches()
    failures = gate(entry, baseline)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if args.output:
        print(f"recorded entry -> {append_entry(args.output, entry)}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
