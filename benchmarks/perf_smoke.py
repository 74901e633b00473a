"""Perf-smoke harness for the Sec. V kernels and the Sec. III FI engine.

Three bench groups, each with its own trajectory record:

* **sweep** (``BENCH_sweep.json``) — times the Fig. 5/Fig. 6 Monte
  Carlo sweep and the wall-ablation hit-rate grid on both the batched
  numpy kernels and the scalar reference path (same seeds, ``jobs=1``,
  no cache), verifying the scalar-vs-batched equivalence contract.
* **fi** (``BENCH_fi.json``) — times a fault-injection campaign on the
  trial-vectorized (batched) and full-rerun (reference) engines,
  verifying the records are bit-identical (see ``docs/fi-engine.md``).
* **obs** (``BENCH_obs.json``) — times the same campaign with telemetry
  recording off vs on (spans, metrics, and the flight-recorder event
  stream); ``--max-obs-overhead 0.05`` gates the observability layer's
  <5% overhead budget in CI (see ``docs/observability.md``).
* **dist** (``BENCH_dist.json``) — times a latency-bound campaign
  (:class:`repro.runtime.loadgen.LatencyWorker`) over the ``tcp``
  transport at increasing worker counts, verifying every run
  bit-identical to the inline reference, plus the scheduler's own
  per-unit overhead on the inline fast path.  ``--min-dist-speedup``
  gates the 1→4-worker tcp throughput gain and
  ``--max-sched-overhead-us`` the bookkeeping budget; this group is
  *not* gated by ``--min-speedup`` (the fabric pipelines waiting, it
  does not vectorize math — see ``docs/distributed.md``).
* **steer** (``BENCH_steer.json``) — runs the surrogate-steered and
  uniform sequential campaigns to the same AVF confidence half-width
  and records the trial-count ratio as the group's ``speedup``
  (``docs/steering.md``).  ``--min-trials-saved`` gates the ratio in
  CI; like the dist group it bypasses ``--min-speedup`` (the gain is
  statistical — fewer trials — not vectorization).

Each run appends one entry — machine info, wall-clock timings,
speedups — to the group's record.  See ``docs/performance.md`` for how
to read the records and why regression checks compare *speedups*
(within-run ratios) rather than raw wall-clock across machines.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py                 # print only
    PYTHONPATH=src python benchmarks/perf_smoke.py --output BENCH_sweep.json
    PYTHONPATH=src python benchmarks/perf_smoke.py \\
        --check BENCH_sweep.json --min-speedup 5 --output out/BENCH_sweep.json \\
        --fi-check BENCH_fi.json --fi-output out/BENCH_fi.json

Exit status is non-zero when an equivalence contract fails, when any
bench's speedup is below ``--min-speedup``, or when ``--check`` /
``--fi-check`` finds a more-than-``--regression-factor`` speedup drop
against the baseline record's newest entry.
"""

from __future__ import annotations

import argparse
import datetime
import json
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

SCHEMA = 1
WALL_PROBS = (1e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4)
WALL_SPEEDS = (2.0, 4.0, 8.0)
HIT_RATE_TOLERANCE = 0.15
# FI bench workload: a seed program long enough that per-trial setup is
# noise, with a 1.5x hang budget — hang trials run to the cycle budget
# on *both* engines, so a loose budget only measures the hang rate, not
# the engine (docs/performance.md, "The fault-injection engine").
FI_HANG_BUDGET_FACTOR = 1.5
# Scale-determining result keys: regression checks skip a bench when the
# baseline ran at a different scale (speedups are scale-dependent).
SCALE_KEYS = ("n_runs", "n_trials", "n_units")
# Dist-fabric bench shape: worker counts to sweep, the simulated unit
# latency (docs/distributed.md: latency-bound units pipeline across
# workers even on one core, which is what the fabric — not the CPU —
# provides), and the unit count of the scheduler-overhead measurement.
DIST_WORKER_COUNTS = (1, 2, 4)
DIST_UNIT_LATENCY_S = 0.02
SCHED_OVERHEAD_UNITS = 512
# Steered-campaign bench shape: both the steered and the uniform
# sequential campaign run to this CI half-width at this fixed seed (the
# run is deterministic, so the recorded ratio is too); the budget is
# the safety ceiling neither run should hit.
STEER_TARGET_CI = 0.02
STEER_SEED = 2


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


def bench_fi_campaign_batched(n_trials, rounds):
    """Batched (trial-vectorized) engine vs the reference oracle."""
    from repro.arch import FaultInjector
    from repro.arch import programs as P

    program = P.matmul(5)

    def make(engine):
        return FaultInjector(
            program, engine=engine, max_cycles_factor=FI_HANG_BUDGET_FACTOR
        )

    batched, reference = make("batched"), make("reference")
    batched_s, batched_res = _timed(
        lambda: batched.run_campaign(n_trials=n_trials, seed=0), rounds
    )
    reference_s, reference_res = _timed(
        lambda: reference.run_campaign(n_trials=n_trials, seed=0), rounds
    )
    # Equivalence contract: bit-identical records, trial for trial.
    if batched_res.records != reference_res.records:
        raise AssertionError("batched engine records diverged from reference")
    return {
        "batched_s": batched_s,
        "reference_s": reference_s,
        "speedup": reference_s / batched_s,
        "n_trials": n_trials,
        "program": program.name,
        "golden_cycles": batched.golden_cycles,
        "hang_budget_factor": FI_HANG_BUDGET_FACTOR,
    }


def bench_obs_overhead(n_trials, rounds):
    """Flight-recorder cost: the same campaign with recording off vs on.

    Each round times one batched-engine campaign bare and one under a
    :class:`repro.obs.RunRecorder` (spans + metrics + the per-trial
    ``fi.trials`` event stream, written to a throwaway directory), and
    keeps the per-round on/off ratio — pairing the measurements cancels
    machine drift that would swamp a few-percent effect.  The recorded
    overhead is the median ratio minus one; CI gates it with
    ``--max-obs-overhead`` (the observability layer's "off by default,
    cheap when on" contract, docs/observability.md).
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

    def runner(transport=None, cache=None):
        return CampaignRunner(chunk_size=1, policy=policy, cache=cache,
                              transport=transport)

    references, inline_times = {}, []
    for seed in seeds:
        start = time.perf_counter()
        references[seed] = runner().run_trials(worker, n_units, seed=seed)
        inline_times.append(time.perf_counter() - start)
    inline_s = float(np.median(inline_times))

    def timed_config(label, transport, cache):
        # Warm-up on its own seed forks the workers so the measured
        # rounds see a steady-state fabric, not worker start-up.
        runner(transport, cache).run_trials(worker, n_units, seed=0)
        times = []
        for seed in seeds:
            start = time.perf_counter()
            out = runner(transport, cache).run_trials(
                worker, n_units, seed=seed
            )
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
        # cache=None: results stream back over the socket, so the row
        # times the wire path, not the shared-cache one.
        transport = TcpTransport(workers=w, poll_s=0.005,
                                 worker_poll_s=0.005)
        try:
            elapsed = timed_config(f"tcp x{w}", transport, None)
        finally:
            transport.shutdown()
        result[f"tcp_{w}_tput"] = n_units / elapsed
    top = DIST_WORKER_COUNTS[-1]
    result["speedup"] = result[f"tcp_{top}_tput"] / result["tcp_1_tput"]
    return result


def bench_sched_overhead(n_units, rounds):
    """Scheduler bookkeeping cost per unit on the inline fast path.

    Zero-latency one-trial units make the workload a few microseconds,
    so an inline run of ``SCHED_OVERHEAD_UNITS`` units measures what the
    scheduler itself charges per unit (admission, journal, telemetry).
    ``--max-sched-overhead-us`` turns the figure into a CI budget.
    """
    del n_units  # fixed scale: the budget is a per-unit absolute
    from repro.runtime import CampaignRunner, FaultPolicy
    from repro.runtime.loadgen import LatencyWorker

    worker = LatencyWorker(0.0)
    policy = FaultPolicy(max_units_per_task=1)

    def run():
        return CampaignRunner(jobs=1, chunk_size=1, policy=policy).run_trials(
            worker, SCHED_OVERHEAD_UNITS, seed=0
        )

    elapsed_s, out = _timed(run, rounds)
    if len(out) != SCHED_OVERHEAD_UNITS:
        raise AssertionError("scheduler-overhead campaign lost trials")
    return {
        "inline_s": elapsed_s,
        "overhead_us_per_unit": elapsed_s / SCHED_OVERHEAD_UNITS * 1e6,
        "n_units": SCHED_OVERHEAD_UNITS,
    }


def bench_steered_campaign(budget, rounds):
    """Surrogate-steered vs uniform sequential campaign at one CI target.

    Both campaigns run the same round-sealed sequential machinery
    (``docs/steering.md``) to the same ±``STEER_TARGET_CI`` AVF
    half-width on the matmul seed program; the recorded ``speedup`` is
    the uniform/steered executed-trial ratio — the quantity steering
    exists to improve — so ``check_regression`` and
    ``--min-trials-saved`` gate it directly.  Contracts checked here:
    both runs stop on the CI target (not budget exhaustion) and the
    steered estimate lands inside the uniform run's Wilson reference
    interval (unbiasedness under adaptive allocation).
    """
    from repro.arch import FaultInjector, SteeringConfig
    from repro.arch import programs as P

    program = P.matmul(5)
    injector = FaultInjector(
        program, max_cycles_factor=FI_HANG_BUDGET_FACTOR
    )

    def run(mode):
        return injector.run_steered_campaign(
            budget=budget, seed=STEER_SEED,
            config=SteeringConfig(mode=mode, target_ci=STEER_TARGET_CI),
        )

    steered_s, steered = _timed(lambda: run("steered"), rounds)
    uniform_s, uniform = _timed(lambda: run("uniform"), rounds)
    for label, res in (("steered", steered), ("uniform", uniform)):
        if res.steering["stop_reason"] != "target":
            raise AssertionError(
                f"{label} campaign exhausted its {budget}-trial budget "
                f"before reaching the ±{STEER_TARGET_CI} target"
            )
    ref_lo, ref_hi = uniform.uniform_interval()
    estimate = steered.steering["avf_estimate"]
    if not ref_lo <= estimate <= ref_hi:
        raise AssertionError(
            f"steered AVF {estimate:.4f} outside the uniform reference "
            f"interval ({ref_lo:.4f}, {ref_hi:.4f})"
        )
    steered_trials = steered.steering["trials_executed"]
    uniform_trials = uniform.steering["trials_executed"]
    return {
        "steered_s": steered_s,
        "uniform_s": uniform_s,
        "speedup": uniform_trials / steered_trials,
        "steered_trials": steered_trials,
        "uniform_trials": uniform_trials,
        "trials_saved": steered.steering["trials_saved"],
        "n_trials": budget,
        "target_ci": STEER_TARGET_CI,
        "seed": STEER_SEED,
        "steered_estimate": estimate,
        "steered_halfwidth": steered.steering["ci_halfwidth"],
        "uniform_estimate": uniform.steering["avf_estimate"],
        "reference_lo": ref_lo,
        "reference_hi": ref_hi,
        "rounds_sealed": steered.steering["rounds"],
        "refits": steered.steering["refits"],
        "program": program.name,
        "golden_cycles": injector.golden_cycles,
        "hang_budget_factor": FI_HANG_BUDGET_FACTOR,
    }


SWEEP_BENCHES = {
    "fig5_fig6_sweep": bench_fig5_fig6_sweep,
    "wall_ablation": bench_wall_ablation,
}
OBS_BENCHES = {
    "obs_overhead": bench_obs_overhead,
}
FI_BENCHES = {
    "fi_campaign_batched": bench_fi_campaign_batched,
}
DIST_BENCHES = {
    "dist_scaling": bench_dist_scaling,
    "sched_overhead": bench_sched_overhead,
}
STEER_BENCHES = {
    "steered_campaign": bench_steered_campaign,
}


def machine_info():
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _new_entry(config):
    return {
        "schema": SCHEMA,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": machine_info(),
        "config": config,
        "results": {},
    }


def run_sweep_benches(n_runs, rounds):
    entry = _new_entry(
        {"n_runs": n_runs, "rounds": rounds, "jobs": 1, "cache": False}
    )
    for name, bench in SWEEP_BENCHES.items():
        result = bench(n_runs, rounds)
        entry["results"][name] = result
        print(
            f"{name}: batched {result['batched_s']*1e3:8.1f} ms   "
            f"scalar {result['scalar_s']*1e3:8.1f} ms   "
            f"speedup {result['speedup']:6.1f}x   "
            f"max hit-rate delta {result['max_hit_rate_delta']:.3f}"
        )
    return entry


def run_fi_benches(n_trials, rounds):
    entry = _new_entry(
        {"n_trials": n_trials, "rounds": rounds, "jobs": 1, "cache": False}
    )
    for name, bench in FI_BENCHES.items():
        result = bench(n_trials, rounds)
        entry["results"][name] = result
        print(
            f"{name}: batched {result['batched_s']*1e3:8.1f} ms   "
            f"reference {result['reference_s']*1e3:8.1f} ms   "
            f"speedup {result['speedup']:6.1f}x   "
            f"({result['program']}, {result['n_trials']} trials)"
        )
    return entry


def run_obs_benches(n_trials, rounds):
    entry = _new_entry(
        {"n_trials": n_trials, "rounds": rounds, "jobs": 1, "cache": False}
    )
    for name, bench in OBS_BENCHES.items():
        result = bench(n_trials, rounds)
        entry["results"][name] = result
        print(
            f"{name}: off {result['off_s']*1e3:8.1f} ms   "
            f"on {result['on_s']*1e3:8.1f} ms   "
            f"overhead {result['overhead']*100:+5.1f}%   "
            f"({result['events_per_run']} events, "
            f"{result['n_trials']} trials)"
        )
    return entry


def run_dist_benches(n_units, rounds):
    entry = _new_entry(
        {"n_units": n_units, "rounds": rounds,
         "unit_latency_s": DIST_UNIT_LATENCY_S, "cache": False}
    )
    for name, bench in DIST_BENCHES.items():
        result = bench(n_units, rounds)
        entry["results"][name] = result
        if name == "dist_scaling":
            tputs = "   ".join(
                f"tcp x{w} {result[f'tcp_{w}_tput']:6.1f}/s"
                for w in DIST_WORKER_COUNTS
            )
            print(
                f"{name}: inline {result['inline_tput']:6.1f}/s   {tputs}   "
                f"scaling {result['speedup']:4.1f}x   "
                f"({result['n_units']} units of "
                f"{result['unit_latency_s']*1e3:.0f} ms)"
            )
        else:
            print(
                f"{name}: {result['overhead_us_per_unit']:8.1f} us/unit   "
                f"({result['n_units']} inline zero-latency units)"
            )
    return entry


def run_steer_benches(budget, rounds):
    entry = _new_entry(
        {"n_trials": budget, "rounds": rounds, "jobs": 1, "cache": False,
         "target_ci": STEER_TARGET_CI, "seed": STEER_SEED}
    )
    for name, bench in STEER_BENCHES.items():
        result = bench(budget, rounds)
        entry["results"][name] = result
        print(
            f"{name}: steered {result['steered_trials']:5d} trials "
            f"({result['steered_s']*1e3:8.1f} ms)   "
            f"uniform {result['uniform_trials']:5d} trials "
            f"({result['uniform_s']*1e3:8.1f} ms)   "
            f"trials saved {result['speedup']:4.1f}x   "
            f"AVF {result['steered_estimate']:.4f} "
            f"±{result['steered_halfwidth']:.4f} "
            f"(ref {result['reference_lo']:.4f}"
            f"–{result['reference_hi']:.4f})   "
            f"({result['program']}, target ±{result['target_ci']})"
        )
    return entry


def load_record(path):
    with open(path) as fh:
        record = json.load(fh)
    if record.get("schema") != SCHEMA or "entries" not in record:
        raise ValueError(f"{path} is not a schema-{SCHEMA} BENCH record")
    return record


def append_entry(path, entry, benchmark="sec5-kernels"):
    path = pathlib.Path(path)
    if path.exists():
        record = load_record(path)
    else:
        record = {"schema": SCHEMA, "benchmark": benchmark, "entries": []}
    record["entries"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def check_regression(entry, baseline_path, regression_factor):
    """Fail when any bench's speedup dropped > ``regression_factor``x.

    Wall-clock is machine-bound, so the check compares each bench's
    *speedup vs its own scalar reference* — a within-run ratio that is
    portable across runners — against the baseline record's newest
    entry.
    """
    baseline = load_record(baseline_path)["entries"][-1]
    failures = []
    for name, result in entry["results"].items():
        base = baseline["results"].get(name)
        if base is None or "speedup" not in result:
            continue  # new bench, or gated by an absolute budget instead
        scale_diff = [
            k for k in SCALE_KEYS if base.get(k) != result.get(k)
        ]
        if scale_diff:
            # Speedup scales with the batch/campaign size; unlike-for-
            # unlike comparisons would produce meaningless failures.
            print(
                f"skip {name}: baseline scale differs "
                f"({', '.join(f'{k}={base.get(k)}' for k in scale_diff)})"
            )
            continue
        if result["speedup"] * regression_factor < base["speedup"]:
            failures.append(
                f"{name}: speedup {result['speedup']:.1f}x is more than "
                f"{regression_factor}x below baseline {base['speedup']:.1f}x "
                f"({baseline['created_utc']})"
            )
    return failures


def _gate_entry(entry, args, check_path, output_path, benchmark):
    """Apply --min-speedup / baseline-check / append to one bench group."""
    status = 0
    if args.min_speedup is not None:
        for name, result in entry["results"].items():
            if result["speedup"] < args.min_speedup:
                print(
                    f"FAIL {name}: speedup {result['speedup']:.1f}x "
                    f"< required {args.min_speedup:.1f}x",
                    file=sys.stderr,
                )
                status = 1
    if check_path:
        failures = check_regression(entry, check_path, args.regression_factor)
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        if failures:
            status = 1
    if output_path:
        path = append_entry(output_path, entry, benchmark=benchmark)
        print(f"recorded entry -> {path}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time the Sec. V Monte Carlo kernels and the Sec. III "
                    "FI engine; record BENCH_sweep.json / BENCH_fi.json"
    )
    parser.add_argument("--runs", type=int, default=100,
                        help="Monte Carlo runs per level (default 100)")
    parser.add_argument("--trials", type=int, default=400,
                        help="fault-injection trials for the FI bench "
                             "(default 400)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per bench; the median is recorded")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="append the sweep entry to FILE (trajectory record)")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare sweep speedups against BASELINE's "
                             "newest entry")
    parser.add_argument("--fi-output", default=None, metavar="FILE",
                        help="append the FI-engine entry to FILE")
    parser.add_argument("--fi-check", default=None, metavar="BASELINE",
                        help="compare FI-engine speedups against BASELINE's "
                             "newest entry")
    parser.add_argument("--obs-output", default=None, metavar="FILE",
                        help="append the observability-overhead entry to FILE")
    parser.add_argument("--dist-units", type=int, default=48,
                        help="latency-bound units per dist-fabric run "
                             "(default 48)")
    parser.add_argument("--dist-output", default=None, metavar="FILE",
                        help="append the dist-fabric entry to FILE")
    parser.add_argument("--dist-check", default=None, metavar="BASELINE",
                        help="compare the tcp scaling factor against "
                             "BASELINE's newest entry")
    parser.add_argument("--steer-budget", type=int, default=8192,
                        help="trial budget ceiling for the steered-campaign "
                             "bench (default 8192; neither run should hit it)")
    parser.add_argument("--steer-output", default=None, metavar="FILE",
                        help="append the steered-campaign entry to FILE")
    parser.add_argument("--steer-check", default=None, metavar="BASELINE",
                        help="compare the steered trials-saved ratio against "
                             "BASELINE's newest entry")
    parser.add_argument("--min-trials-saved", type=float, default=None,
                        help="fail when the steered campaign saves fewer "
                             "than this factor of trials vs the uniform "
                             "baseline (CI passes 3)")
    parser.add_argument("--min-dist-speedup", type=float, default=None,
                        help="fail when the 1-to-max-worker tcp "
                             "throughput gain is below this (CI passes 2)")
    parser.add_argument("--max-sched-overhead-us", type=float, default=None,
                        metavar="US",
                        help="fail when inline scheduler overhead exceeds "
                             "this many microseconds per unit")
    parser.add_argument("--max-obs-overhead", type=float, default=None,
                        metavar="FRACTION",
                        help="fail when recording overhead exceeds this "
                             "fraction (CI passes 0.05 for the <5%% gate)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail when any bench's speedup is below this")
    parser.add_argument("--regression-factor", type=float, default=2.0,
                        help="allowed speedup drop vs baseline (default 2x)")
    args = parser.parse_args(argv)

    sweep_entry = run_sweep_benches(args.runs, args.rounds)
    fi_entry = run_fi_benches(args.trials, args.rounds)
    obs_entry = run_obs_benches(args.trials, args.rounds)
    dist_entry = run_dist_benches(args.dist_units, args.rounds)
    steer_entry = run_steer_benches(args.steer_budget, args.rounds)

    status = _gate_entry(sweep_entry, args, args.check, args.output,
                         "sec5-kernels")
    status |= _gate_entry(fi_entry, args, args.fi_check, args.fi_output,
                          "sec3-fi-engine")
    # The obs group gates on an absolute overhead budget, not a speedup.
    if args.max_obs_overhead is not None:
        for name, result in obs_entry["results"].items():
            if result["overhead"] > args.max_obs_overhead:
                print(
                    f"FAIL {name}: recording overhead "
                    f"{result['overhead']*100:.1f}% exceeds the "
                    f"{args.max_obs_overhead*100:.1f}% budget",
                    file=sys.stderr,
                )
                status = 1
    if args.obs_output:
        path = append_entry(args.obs_output, obs_entry,
                            benchmark="obs-overhead")
        print(f"recorded entry -> {path}")
    # The dist group has its own floors: the tcp scaling factor and
    # an absolute scheduler-overhead budget.  It deliberately bypasses
    # --min-speedup, which gates vectorization ratios an order of
    # magnitude above what worker pipelining can (or should) reach.
    scaling = dist_entry["results"]["dist_scaling"]
    overhead = dist_entry["results"]["sched_overhead"]
    if (args.min_dist_speedup is not None
            and scaling["speedup"] < args.min_dist_speedup):
        print(
            f"FAIL dist_scaling: tcp throughput gain "
            f"{scaling['speedup']:.1f}x < required "
            f"{args.min_dist_speedup:.1f}x",
            file=sys.stderr,
        )
        status = 1
    if (args.max_sched_overhead_us is not None
            and overhead["overhead_us_per_unit"] > args.max_sched_overhead_us):
        print(
            f"FAIL sched_overhead: {overhead['overhead_us_per_unit']:.1f} "
            f"us/unit exceeds the {args.max_sched_overhead_us:.1f} us budget",
            file=sys.stderr,
        )
        status = 1
    if args.dist_check:
        failures = check_regression(dist_entry, args.dist_check,
                                    args.regression_factor)
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        if failures:
            status = 1
    if args.dist_output:
        path = append_entry(args.dist_output, dist_entry,
                            benchmark="dist-fabric")
        print(f"recorded entry -> {path}")
    # The steer group's "speedup" is a trial-count ratio, not a
    # vectorization ratio, so like dist it has its own floor
    # (--min-trials-saved) and bypasses --min-speedup.
    steer = steer_entry["results"]["steered_campaign"]
    if (args.min_trials_saved is not None
            and steer["speedup"] < args.min_trials_saved):
        print(
            f"FAIL steered_campaign: trials-saved ratio "
            f"{steer['speedup']:.1f}x < required "
            f"{args.min_trials_saved:.1f}x",
            file=sys.stderr,
        )
        status = 1
    if args.steer_check:
        failures = check_regression(steer_entry, args.steer_check,
                                    args.regression_factor)
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        if failures:
            status = 1
    if args.steer_output:
        path = append_entry(args.steer_output, steer_entry,
                            benchmark="steered-campaign")
        print(f"recorded entry -> {path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
