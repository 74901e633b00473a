"""End-to-end and per-layer benchmark of the ``repro`` library.

Run from the repository root::

    python3 perfbench/run.py --workload fi-uniform --seed 1 --seconds 20 --trace 0

``--trace 0`` times passes over the workload with no tracing and prints
the end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1``
alternates untraced passes with passes traced from outside the library
(see ``tracing.py``) and prints the per-layer metrics.  Every operation
is checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of a traced run are
written to ``.perfbench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One core per workload, as campaigns run with jobs=1: pin BLAS to one
# thread before numpy loads.  On 2 vCPUs the threaded MLP fit takes the
# same wall time for twice the CPU, and its timings swing with whatever
# else the host runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from tracing import CLOCK  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up is timed this many times per run (once in-process, the rest in
#: fresh interpreters) and reported as the median.
SETUP_SAMPLES = 5
#: End-to-end times are scaled to a host on which ``calibrate()`` takes
#: this many CPU seconds (about what it takes on the 2-vCPU VM the
#: benchmark was built on).
CALIBRATION_REF_S = 0.1

#: Share metrics: ``share.<name>`` sums the self time of these spans.
SHARES = {
    "arch.inject": ("arch.inject",),
    "arch.steering": ("arch.steering",),
    "ml.gbdt.fit": ("ml.gbdt.fit",),
    "ml.gbdt.predict": ("ml.gbdt.predict",),
    "ml.mlp.fit": ("ml.mlp.fit",),
    "runtime.cache": ("runtime.cache.get", "runtime.cache.put"),
    "runtime.self": ("runtime.campaign",),
    "circuit.characterize": ("circuit.characterize",),
    "circuit.she_flow": ("circuit.she_flow",),
    "circuit.sta": ("circuit.sta",),
    "circuit.ml_char.label": ("circuit.ml_char.label",),
    "circuit.ml_char.validate": ("circuit.ml_char.validate",),
    "circuit.ml_char.generate": ("circuit.ml_char.generate",),
    "circuit.guardband": ("circuit.guardband",),
}
#: Span names whose self time belongs to a named layer; the rest (the
#: benchmark's own loop) is unattributed.
LAYERS = tuple(name for names in SHARES.values() for name in names)
ENGINE_COUNTERS = {
    "arch.engine.lanes": "arch.fi.engine.batch.lanes",
    "arch.engine.lane_cycles": "arch.fi.engine.batch.lane_cycles",
    "arch.engine.divergences": "arch.fi.engine.batch.divergences",
    "arch.engine.offtrace_trials": "arch.fi.engine.batch.offtrace_trials",
    "arch.engine.scalar_tails": "arch.fi.engine.batch.scalar_tails",
}

#: Per-layer metrics a workload reports from its own results
#: (``layer_facts``); the others report 0.
WORKLOAD_FACTS = (
    "arch.avf.err_pct", "arch.steering.trials_to_ci",
    "arch.steering.saved_frac", "arch.steering.refits", "arch.steering.rounds",
    "arch.steering.abs_err_max", "arch.steering.ci_covered",
    "circuit.order_violations",
)


def import_repro():
    """Put this checkout's ``src`` first and refuse any other ``repro``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def calibrate():
    """CPU seconds of a fixed reference load (median of five).

    The load mixes the kinds of work the workloads do: an interpreter
    loop, small-array numpy updates (the lane march), sorting (tree fits)
    and small matrix products (MLP fits).  Timing it before and after
    every pass measures how fast the shared host runs at the moment.
    """
    import numpy as np

    samples = []
    for _ in range(5):
        started = CLOCK()
        total = 0
        for i in range(120_000):
            total += (i * i) % 7
        lanes = np.arange(1024, dtype=np.int64)
        for _ in range(3000):
            lanes = (lanes * 3 + 1) & 0xFFFF
        keys = np.random.default_rng(0).random(4096)
        for _ in range(300):
            np.argsort(keys)
        h = np.full((64, 96), 0.5)
        w = np.full((96, 96), 0.01)
        for _ in range(2000):
            h = np.maximum(h @ w, 0.0) + 0.5
        samples.append(CLOCK() - started)
    return statistics.median(samples)


def time_setup(workload):
    started = CLOCK()
    import_repro()
    workload.import_layers()
    workload.build()
    return CLOCK() - started


def setup_in_subprocess(args):
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


class Runner:
    def __init__(self, workload, tracer, scratch):
        from repro.runtime import ResultCache

        from tracing import TracedWorker, traced_cache_class

        self.workload = workload
        self.tracer = tracer
        self.scratch = scratch
        self.ops = workload.ops()
        self.plain_cache = ResultCache
        self.traced_cache = traced_cache_class()
        self.traced_worker = TracedWorker
        self.digests = None
        self.first_ok = None
        self.first_results = None
        self.attempted = 0
        self.failed = 0
        self.passes = []
        self.calibration = []  # calibrate() before each pass and after the last

    def run_pass(self, traced, corrupt=False):
        """One pass over every operation."""
        tracer = self.tracer
        path = tempfile.mkdtemp(dir=self.scratch)
        if traced:
            cache = self.traced_cache(path, tracer)
            wrapper = lambda worker: self.traced_worker(worker, tracer)  # noqa: E731
        else:
            cache = self.plain_cache(path)
            wrapper = None
        results = []
        self.calibration.append(calibrate())
        wall = time.perf_counter()
        started = CLOCK()
        with tracer.span("pass"):
            for op in self.ops:
                tracer.op = op.name
                t = CLOCK()
                with tracer.span(self.workload.op_span, op=op.name):
                    try:
                        result = op.run(cache, wrapper)
                    except Exception:
                        traceback.print_exc()
                        result = None
                results.append((CLOCK() - t, result))
        seconds = CLOCK() - started
        wall = time.perf_counter() - wall
        tracer.op = None
        shutil.rmtree(path, ignore_errors=True)
        self.passes.append({
            "traced": traced, "cpu": seconds, "wall": wall,
            "ops": [s for s, _ in results],
            "work": sum(self.workload.work(r) for _, r in results if r is not None),
        })
        self._check(results, corrupt)

    def scales(self):
        """Per pass: the factor taking its CPU seconds to reference seconds,
        from the calibration loads timed just before and after it."""
        if len(self.calibration) == len(self.passes):
            self.calibration.append(calibrate())
        cal = self.calibration
        return [2 * CALIBRATION_REF_S / (cal[i] + cal[i + 1])
                for i in range(len(self.passes))]

    def _check(self, results, corrupt):
        """Full checks on the first pass; later passes must repeat it."""
        workload = self.workload
        if corrupt and results[0][1] is not None:
            workload.corrupt(results[0][1])
        digests = [None if r is None else workload.digest(r) for _, r in results]
        if self.digests is None:
            self.digests = digests
            self.first_results = [r for _, r in results]
            self.first_ok = []
            for op, (_, r) in zip(self.ops, results):
                try:
                    ok = r is not None and bool(workload.check(r))
                except Exception:
                    traceback.print_exc()
                    ok = False
                if not ok:
                    print(f"check failed: {op.name}", file=sys.stderr)
                self.first_ok.append(ok)
            bad = [not ok for ok in self.first_ok]
        else:
            bad = [d is None or d != first or not ok
                   for d, first, ok in zip(digests, self.digests, self.first_ok)]
        self.attempted += len(results)
        self.failed += sum(bad)

    def records_digest(self):
        """One digest over every operation's first-pass output."""
        return hashlib.sha256(
            "".join(d or "-" for d in self.digests).encode()).hexdigest()


def end_to_end(runner, setup_samples):
    """End-to-end metrics in reference seconds (see ``calibrate``)."""
    good = [r for r in runner.first_results if r is not None]
    scales = runner.scales()
    passes = list(zip(runner.passes, scales))
    return {
        "setup_s": statistics.median(setup_samples) * scales[0],
        "pass_s": statistics.median(p["cpu"] * k for p, k in passes),
        "trials_per_s": statistics.median(p["work"] / (p["cpu"] * k) for p, k in passes),
        "time_to_ci_s": statistics.median(t * k for p, k in passes for t in p["ops"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "err_pct": runner.workload.err_pct(good) if good else 0.0,
    }


def per_layer(runner, tracer, setup_spans, counters):
    """Per-layer metrics, per traced pass, from the spans and counters."""
    from tracing import descendants, self_times

    spans = tracer.spans
    own = self_times(spans)
    passes = [i for i, s in enumerate(spans) if s[0] == "pass"]
    n = len(passes)
    layer_s = dict.fromkeys(LAYERS, 0.0)
    calls, rows, trials = {}, {}, 0
    gets = hits = 0
    for p in passes:
        for i in descendants(spans, p):
            name, attrs = spans[i][0], spans[i][5]
            layer_s[name] = layer_s.get(name, 0.0) + own[i]
            calls[name] = calls.get(name, 0) + 1
            rows[name] = rows.get(name, 0) + attrs.get("rows", 0)
            trials += attrs.get("trials", 0)
            if name == "runtime.cache.get":
                gets += 1
                hits += attrs["hit"]
    pass_s = sum(spans[p][2] - spans[p][1] for p in passes) / n
    per = {k: v / n for k, v in layer_s.items()}
    golden = [i for i in setup_spans if spans[i][0] == "arch.golden"]
    imports = [i for i in setup_spans if spans[i][0] == "import"]
    metrics = {
        "import.s": sum(spans[i][2] - spans[i][1] for i in imports),
        "arch.golden.s": sum(spans[i][2] - spans[i][1] for i in golden),
        "arch.golden.calls": len(golden),
        "arch.inject.s": per["arch.inject"],
        "arch.inject.trials": trials / n,
        "arch.inject.trials_per_s": (trials / layer_s["arch.inject"]
                                     if layer_s["arch.inject"] else 0.0),
    }
    for name, counter in ENGINE_COUNTERS.items():
        metrics[name] = counters.get(counter, 0) / n
    lanes = metrics["arch.engine.lanes"]
    metrics["arch.engine.diverged_frac"] = (
        metrics["arch.engine.divergences"] / lanes if lanes else 0.0)
    metrics.update(dict.fromkeys(WORKLOAD_FACTS, 0))
    good = [r for r in runner.first_results if r is not None]
    if good:
        metrics.update(runner.workload.layer_facts(good))
    metrics.update({
        "arch.steering.self_s": per["arch.steering"],
        "ml.gbdt.fit.s": per["ml.gbdt.fit"],
        "ml.gbdt.fit.calls": calls.get("ml.gbdt.fit", 0) / n,
        "ml.gbdt.fit.rows": rows.get("ml.gbdt.fit", 0) / n,
        "ml.gbdt.predict.s": per["ml.gbdt.predict"],
        "ml.mlp.fit.s": per["ml.mlp.fit"],
        "ml.mlp.fit.rows": rows.get("ml.mlp.fit", 0) / n,
        "runtime.cache.put.s": per["runtime.cache.put"],
        "runtime.cache.put.calls": calls.get("runtime.cache.put", 0) / n,
        "runtime.cache.get.s": per["runtime.cache.get"],
        "runtime.cache.get.calls": gets / n,
        "runtime.cache.hit_frac": hits / gets if gets else 0.0,
        "runtime.self_s": per["runtime.campaign"],
        "circuit.characterize.s": per["circuit.characterize"],
        "circuit.she_flow.s": per["circuit.she_flow"],
        "circuit.sta.s": per["circuit.sta"],
        "circuit.sta.calls": calls.get("circuit.sta", 0) / n,
        "circuit.ml_char.label_s": per["circuit.ml_char.label"],
        "circuit.ml_char.validate.s": per["circuit.ml_char.validate"],
        "circuit.ml_char.generate.s": per["circuit.ml_char.generate"],
        "circuit.guardband.self_s": per["circuit.guardband"],
    })
    for share, names in SHARES.items():
        metrics[f"share.{share}"] = sum(per[k] for k in names) / pass_s
    metrics["trace.attributed_frac"] = sum(per.values()) / pass_s
    scaled = [(p, p["cpu"] * k) for p, k in zip(runner.passes, runner.scales())]
    untraced = [p for p, _ in scaled if not p["traced"]]
    metrics["trace.overhead_frac"] = (
        statistics.median(s for p, s in scaled if p["traced"])
        / statistics.median(s for p, s in scaled if not p["traced"]) - 1)
    metrics["trace.spans"] = len(spans)
    metrics["host.calibration_s"] = statistics.median(runner.calibration)
    metrics["cpu.pass_s"] = statistics.median(p["cpu"] for p in untraced)
    metrics["wall.pass_s"] = statistics.median(p["wall"] for p in untraced)
    metrics["wall.wait_frac"] = statistics.median(
        p["wall"] / p["cpu"] - 1 for p in untraced)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long pass for the self-tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one output before the checks")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.size)
    if args.setup_only:
        print(repr(time_setup(workload)))
        return 0

    e2e_units, layer_units = declared_metrics()
    from tracing import Tracer, install_layer_wrappers

    tracer = Tracer()
    if args.trace:
        tracer.active = True
        with tracer.span("import"):
            import_repro()
            workload.import_layers()
        restore = install_layer_wrappers(tracer)
        with tracer.span("setup"):
            workload.build()
        restore()
        tracer.active = False
        setup_spans = list(range(len(tracer.spans)))
    else:
        setup_samples = [time_setup(workload)]
        setup_samples += [setup_in_subprocess(args)
                          for _ in range(SETUP_SAMPLES - 1)]
    workload.load_ground_truth()

    scratch = Path.cwd() / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch))
    try:
        runner = Runner(workload, tracer, scratch)
        started = time.perf_counter()
        if not args.trace:
            while True:
                runner.run_pass(traced=False, corrupt=args.corrupt)
                if time.perf_counter() - started >= args.seconds:
                    break
        else:
            from repro import obs

            counters = {}
            while True:
                runner.run_pass(traced=False, corrupt=args.corrupt)
                restore = install_layer_wrappers(tracer)
                tracer.active = True
                obs.reset()
                obs.enable()
                try:
                    runner.run_pass(traced=True)
                finally:
                    obs.disable()
                    tracer.active = False
                    restore()
                for name, value in obs.metrics_snapshot()["counters"].items():
                    counters[name] = counters.get(name, 0) + value
                if time.perf_counter() - started >= args.seconds:
                    break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics = per_layer(runner, tracer, setup_spans, counters)
        units = layer_units
        out = Path.cwd() / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(out)
        print(f"spans: {len(tracer.spans)} written to {out}")
    else:
        metrics = end_to_end(runner, setup_samples)
        units = e2e_units
    missing = set(units) ^ set(metrics)
    if missing:
        raise SystemExit(f"metrics disagree with BENCHMARK.json: {sorted(missing)}")

    fail_frac = runner.failed / runner.attempted
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(runner.passes)} passes x {len(runner.ops)} operations")
    print(f"records digest: {runner.records_digest()}")
    print("passes (cpu s, wall s): " + ", ".join(
        f"{p['cpu']:.3f}/{p['wall']:.3f}" for p in runner.passes)
        + "; calibration s: " + ", ".join(f"{c:.4f}" for c in runner.calibration))
    print(f"fail_frac: {fail_frac:.4f} ({runner.failed}/{runner.attempted})")
    print(f"time_to_ci_s: median of "
          f"{sum(len(p['ops']) for p in runner.passes if not p['traced'])} operations")
    print(f"err_pct: {runner.workload.err_pct.__doc__.splitlines()[0]}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
