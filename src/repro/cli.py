"""Command-line interface: run paper experiments by name.

Usage::

    python -m repro list                     # available experiments
    python -m repro fig5 --jobs 4            # Fig. 5 sweep over 4 processes
    python -m repro fig6 --runs 50           # Fig. 6 with 50 MC runs/point
    python -m repro fi --trials 2000         # fault-injection campaign
    python -m repro fig2 fig3 hdc            # several in sequence
    python -m repro fi --record runs         # record telemetry to runs/<id>/
    python -m repro report runs/<id>         # render a recorded run
    python -m repro report runs --list       # one summary line per run
    python -m repro report --diff A B        # compare two run records
    python -m repro report runs/<id> --trace-out t.json --prom-out m.prom
    python -m repro watch runs/<id>          # live view of a running campaign
    python -m repro worker --connect HOST:PORT   # external campaign worker
    python -m repro fi --transport tcp --listen 0.0.0.0:7777 --workers 4

Campaign experiments (``fig5``/``fig6``/``wall``/``fi``) execute
through :mod:`repro.runtime`: ``--jobs N`` fans trial chunks out over N
processes (results identical to serial), completed chunks are memoized
on disk so re-runs only execute new points (``--no-cache`` disables,
``--cache-dir`` relocates), and ``--progress`` streams trials/sec, an
ETA, and the outcome histogram to stderr.  Campaigns are fault
tolerant: failed units retry with backoff (``--max-retries``), hung
units are detected and retried (``--unit-timeout``), dead workers are
replaced, and an interrupted campaign — SIGINT, OOM-killed worker,
reboot — resumes with ``--resume`` to a bit-identical result (see
``docs/campaigns.md``, "Fault tolerance & resume").  ``--record DIR`` wraps each
experiment in a :class:`repro.obs.RunRecorder`: spans, metrics, and
campaign accounting land in a JSONL run record that ``python -m repro
report <run-dir>`` renders (see ``docs/observability.md``).
``--transport`` selects the execution backend (``inline``/``tcp``);
with ``tcp``, the scheduler listens on ``--listen HOST:PORT`` and
workers — forked by ``--workers N``, or ``python -m repro worker
--connect HOST:PORT`` processes launched by hand on any host with a
route — dial in and execute the campaign's tasks (no shared filesystem
needed — see ``docs/distributed.md``).  The CLI prints the same series the
benchmark harness checks; the full statistical versions live under
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys


def _runtime_kwargs(args):
    """jobs/cache/progress/policy keywords shared by campaign experiments."""
    from repro.runtime import FaultPolicy, ResultCache, print_progress

    if args.resume and args.no_cache:
        raise SystemExit(
            "--resume needs the result cache (it replays journaled units); "
            "drop --no-cache"
        )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    policy = None
    if args.unit_timeout is not None or args.max_retries is not None:
        defaults = FaultPolicy()
        policy = FaultPolicy(
            unit_timeout_s=args.unit_timeout,
            max_retries=(args.max_retries if args.max_retries is not None
                         else defaults.max_retries),
        )
    kwargs = {
        "jobs": args.jobs,
        "cache": cache,
        "progress": print_progress if args.progress else None,
        "policy": policy,
        "resume": args.resume,
    }
    transport = getattr(args, "transport", "auto")
    if transport == "tcp":
        from repro.runtime.transports.tcp import parse_address

        try:
            host, port = parse_address(args.listen or "127.0.0.1:0")
        except ValueError as exc:
            raise SystemExit(f"--listen: {exc}") from None
        kwargs["transport"] = "tcp"
        kwargs["transport_options"] = {
            "host": host,
            "port": port,
            "workers": args.workers,
            "auth": args.auth,
        }
    elif transport != "auto":
        kwargs["transport"] = transport
    return kwargs


def _print_table(title, header, rows):
    print(f"\n== {title} ==")
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) for i, h in enumerate(header)
    ]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))


def _mc_kernel(args):
    """Kernel selection for Monte Carlo experiments (fig5/fig6/wall)."""
    return "scalar" if getattr(args, "reference_kernel", False) else "auto"


def _fi_engine(args):
    """Trial-engine selection for the fault-injection experiment (fi)."""
    return "reference" if getattr(args, "reference_engine", False) else "batched"


def run_fig5(args):
    """Fig. 5: rollbacks per segment vs error probability."""
    from repro.core import MonteCarloStudy, adpcm_like_workload

    study = MonteCarloStudy(
        adpcm_like_workload(n_segments=12, seed=0), n_runs=args.runs, seed=0,
        kernel=_mc_kernel(args),
    )
    probs = [1e-8, 1e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4]
    analytic = study.analytic_rollbacks(probs)
    points = study.sweep(probs, **_runtime_kwargs(args))
    rows = [
        (f"{p:.0e}", f"{point.mean_rollbacks_per_segment:.3f}",
         f"{a:.3f}" if a < 1e6 else ">1e6")
        for p, a, point in zip(probs, analytic, points)
    ]
    _print_table("Fig. 5: rollbacks per segment", ("p", "simulated", "analytic"), rows)
    _print_runtime_stats(study.last_sweep_stats, unit="levels")


def run_fig6(args):
    """Fig. 6: deadline hit rate per policy vs error probability."""
    from repro.core import ALL_POLICIES, MonteCarloStudy, adpcm_like_workload

    study = MonteCarloStudy(
        adpcm_like_workload(n_segments=12, seed=0), n_runs=args.runs, seed=0,
        kernel=_mc_kernel(args),
    )
    probs = [1e-8, 1e-7, 1e-6, 3e-6, 1e-5, 3e-5]
    names = [p.name for p in ALL_POLICIES]
    points = study.sweep(probs, **_runtime_kwargs(args))
    rows = [
        (f"{pt.error_probability:.0e}", *(f"{pt.hit_rate[n]:.2f}" for n in names))
        for pt in points
    ]
    _print_table("Fig. 6: deadline hit rate", ("p", *names), rows)
    _print_runtime_stats(study.last_sweep_stats, unit="levels")


def run_fi(args):
    """Sec. III: fault-injection campaign with outcome taxonomy."""
    from repro.arch import FaultInjector
    from repro.arch import programs as P

    injector = FaultInjector(P.checksum(12), engine=_fi_engine(args))
    steering = None
    if getattr(args, "steer", False):
        from repro.arch import SteeringConfig

        config = SteeringConfig(
            target_ci=args.target_ci,
            early_stop=not args.no_early_stop,
        )
        campaign = injector.run_steered_campaign(
            budget=args.trials, seed=0, config=config, **_runtime_kwargs(args)
        )
        steering = campaign.steering
    else:
        campaign = injector.run_campaign(
            n_trials=args.trials, seed=0, **_runtime_kwargs(args)
        )
    counts = campaign.counts()
    rows = [
        (outcome.value, counts[outcome], f"{rate:.3f}")
        for outcome, rate in campaign.rates().items()
    ]
    executed = len(campaign.records)
    _print_table(
        f"Sec. III: {executed}-trial campaign on '{campaign.program}'",
        ("outcome", "trials", "rate"),
        rows,
    )
    _print_runtime_stats(injector.last_run_stats, unit="trials")
    if steering is not None:
        print(
            f"steering: AVF {steering['avf_estimate']:.4f} "
            f"± {steering['ci_halfwidth']:.4f} "
            f"(target ±{steering['target_ci']}, "
            f"{int(steering['confidence'] * 100)}% confidence), "
            f"{steering['trials_executed']}/{steering['budget']} trials "
            f"({steering['trials_saved']} saved), "
            f"{steering['rounds']} rounds, {steering['refits']} refits, "
            f"stopped on {steering['stop_reason']}"
        )
    stats = injector.engine_stats()
    print(
        f"engine: {stats['engine']}, "
        f"{stats['snapshots']} snapshots @ interval "
        f"{stats['snapshot_interval']}, golden {stats['golden_cycles']} "
        f"cycles (budget {stats['max_cycles']})"
    )
    resolved = {"fi_engine": stats}
    if steering is not None:
        resolved["steering"] = steering
    return resolved


def _print_runtime_stats(stats, unit):
    if stats is None:
        return
    line = (
        f"runtime: {stats.executed_trials} {unit} executed, "
        f"{stats.cached_trials} cached, "
        f"{stats.trials_per_sec:.1f} {unit}/s, jobs={stats.jobs_used}"
    )
    if stats.resumed:
        line += f", resumed ({stats.journaled_units} units journaled)"
    if stats.retries:
        line += f", {stats.retries} retries"
    if stats.pool_respawns:
        line += f", {stats.pool_respawns} worker respawns"
    print(line)


def run_fig2(args):
    """Fig. 2: per-instance SHE spread over a synthesized core."""
    from repro.circuit import (
        SheFlow,
        SpiceLikeCharacterizer,
        build_default_library,
        synthesize_core,
    )

    library = build_default_library(temperature_c=45.0)
    characterizer = SpiceLikeCharacterizer()
    characterizer.characterize_library(library)
    netlist = synthesize_core(library, n_instances=args.instances, seed=0)
    report = SheFlow(characterizer).run(netlist, library)
    lo, mean, hi = report.spread()
    counts, edges = report.histogram(bins=8)
    rows = [(f"{edges[i]:.1f}-{edges[i+1]:.1f}", int(c)) for i, c in enumerate(counts)]
    _print_table(
        f"Fig. 2: SHE dT over {len(netlist)} instances "
        f"(min {lo:.1f} / mean {mean:.1f} / max {hi:.1f} K)",
        ("dT bin (K)", "#instances"),
        rows,
    )


def run_fig3(args):
    """Fig. 3: guardband comparison (worst-case vs SHE-aware ML)."""
    from repro.circuit import (
        SpiceLikeCharacterizer,
        build_default_library,
        guardband_comparison,
        synthesize_core,
    )

    library = build_default_library()
    SpiceLikeCharacterizer().characterize_library(library)
    netlist = synthesize_core(library, n_instances=args.instances, seed=1)
    result = guardband_comparison(
        netlist, build_default_library, ml_training_samples=3000, seed=0
    )
    _print_table(
        "Fig. 3: sign-off clock period per flow",
        ("flow", "period (ps)"),
        [
            ("nominal", f"{result.nominal_period:.1f}"),
            ("worst-case", f"{result.worst_case_period:.1f}"),
            ("SHE-aware ML", f"{result.she_aware_period:.1f}"),
        ],
    )
    print(
        f"guardband reduction {result.guardband_reduction:.0%}, "
        f"ML MAPE {result.ml_validation_mape:.2%}"
    )


def run_hdc(args):
    """HDC robustness: accuracy vs component error rate."""
    import numpy as np

    from repro.hdc import HDCClassifier
    from repro.ml import train_test_split

    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(c, 0.7, size=(80, 6)) for c in (0.0, 2.0, 4.0, 6.0)])
    y = np.repeat([0, 1, 2, 3], 80)
    Xtr, Xte, ytr, yte = train_test_split(X, y, test_size=0.3, seed=1)
    clf = HDCClassifier(dim=4096, retrain_epochs=3, seed=0).fit(Xtr, ytr)
    rates = (0.0, 0.2, 0.4)
    accs = clf.accuracy_under_errors(Xte, yte, rates, n_repeats=3)
    _print_table(
        "Sec. II: HDC accuracy under hardware errors",
        ("error rate", "accuracy"),
        [(f"{r:.1f}", f"{a:.3f}") for r, a in zip(rates, accs)],
    )


def run_managers(args):
    """Sec. IV: RL-DVFS manager vs baselines."""
    from repro.system import (
        RLDVFSManager,
        StaticManager,
        RandomManager,
        generate_task_set,
        run_managed_simulation,
    )

    tasks = generate_task_set(n_tasks=8, total_utilization=2.0, seed=0)
    rows = []
    for name, manager, train in (
        ("static", StaticManager(), 0),
        ("random", RandomManager(seed=1), 0),
        ("RL-DVFS", RLDVFSManager(seed=0), 6),
    ):
        metrics = run_managed_simulation(
            manager, tasks, n_cores=4, duration=15.0, seed=0,
            training_episodes=train,
        )
        rows.append(
            (name, f"{metrics.deadline_hit_rate:.3f}", f"{metrics.energy_j:.1f}",
             f"{metrics.mttf_years:.2f}")
        )
    _print_table(
        "Sec. IV: dynamic reliability managers",
        ("manager", "deadline hit", "energy (J)", "MTTF (y)"),
        rows,
    )


def run_wall(args):
    """Sec. V-D: locate the error-rate wall per policy."""
    from repro.core import ALL_POLICIES, MonteCarloStudy, adpcm_like_workload

    study = MonteCarloStudy(
        adpcm_like_workload(n_segments=12, seed=0), n_runs=args.runs, seed=0,
        kernel=_mc_kernel(args),
    )
    points = study.sweep(
        [1e-8, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4], **_runtime_kwargs(args)
    )
    rows = []
    for policy in ALL_POLICIES:
        wall = study.find_wall(points, policy.name)
        rows.append(
            (policy.name, f"{wall.last_safe_p:.0e}", f"{wall.first_failed_p:.0e}")
        )
    _print_table(
        "Sec. V-D: error-rate wall per policy",
        ("policy", "safe up to", "collapsed by"),
        rows,
    )


EXPERIMENTS = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fi": run_fi,
    "hdc": run_hdc,
    "managers": run_managers,
    "wall": run_wall,
}


def _positive_int(value):
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _jobs_count(value):
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 = all CPUs), got {jobs}")
    return jobs


def _retries_count(value):
    retries = int(value)
    if retries < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {retries}")
    return retries


def _timeout_seconds(value):
    timeout = float(value)
    if timeout <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0 seconds, got {timeout}")
    return timeout


def _target_ci(value):
    width = float(value)
    if not 0.0 < width < 0.5:
        raise argparse.ArgumentTypeError(
            f"must be a half-width in (0, 0.5), got {width}"
        )
    return width


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run reproduced experiments from the DATE 2023 paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names (or 'list' to enumerate them)",
    )
    parser.add_argument(
        "--runs", type=_positive_int, default=100, help="Monte Carlo runs/point"
    )
    parser.add_argument(
        "--instances", type=_positive_int, default=300,
        help="netlist size for circuit flows",
    )
    parser.add_argument(
        "--trials", type=_positive_int, default=500,
        help="fault-injection trials for 'fi'",
    )
    runtime = parser.add_argument_group(
        "campaign runtime (fig5/fig6/wall/fi; see docs/campaigns.md)"
    )
    runtime.add_argument(
        "--jobs", type=_jobs_count, default=1,
        help="worker processes for campaigns (0 = one per CPU; default 1)",
    )
    runtime.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache (re-execute everything)",
    )
    runtime.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    runtime.add_argument(
        "--progress", action="store_true",
        help="stream trials/sec, ETA, and the outcome histogram to stderr",
    )
    runtime.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign from its journal + result cache "
             "(bit-identical to an uninterrupted run; needs the cache on)",
    )
    runtime.add_argument(
        "--unit-timeout", type=_timeout_seconds, default=None, metavar="SECONDS",
        help="wall-clock budget per unit of work, counted from when a "
             "worker claims it; the local worker holding a hung unit is "
             "killed and replaced, and the unit retried",
    )
    runtime.add_argument(
        "--max-retries", type=_retries_count, default=None, metavar="N",
        help="re-executions of a failed unit before its error propagates "
             "(default 2)",
    )
    runtime.add_argument(
        "--transport", choices=("auto", "inline", "tcp"),
        default="auto",
        help="campaign execution backend (default auto: inline for --jobs 1, "
             "tcp with --jobs forked workers otherwise; --transport tcp "
             "takes --listen and --workers — see docs/distributed.md)",
    )
    runtime.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="listen address for --transport tcp ('python -m repro worker "
             "--connect HOST:PORT' processes dial in; default 127.0.0.1:0, "
             "an ephemeral localhost port)",
    )
    runtime.add_argument(
        "--auth", default=None, metavar="SECRET",
        help="shared secret for --transport tcp's connection handshake "
             "(default: $REPRO_TCP_AUTH, else a random secret only "
             "forked workers inherit); externally launched workers must "
             "be given the same secret — see docs/distributed.md",
    )
    runtime.add_argument(
        "--workers", type=_jobs_count, default=1, metavar="N",
        help="tcp workers to fork and babysit (0 = rely on externally "
             "launched 'repro worker' processes; default 1)",
    )
    runtime.add_argument(
        "--record", default=None, metavar="DIR",
        help="record spans/metrics/outcomes to DIR/<run-id>/record.jsonl "
             "(render with 'python -m repro report DIR/<run-id>')",
    )
    kernels = parser.add_argument_group(
        "Monte Carlo kernels (fig5/fig6/wall; see docs/performance.md)"
    )
    kernels.add_argument(
        "--reference-kernel", action="store_true",
        help="force the scalar reference Monte Carlo kernel instead of the "
             "batched numpy kernels (debugging / equivalence checks)",
    )
    engines = parser.add_argument_group(
        "fault-injection engine (fi; see docs/performance.md)"
    )
    engines.add_argument(
        "--reference-engine", action="store_true",
        help="force the full-rerun reference fault-injection engine instead "
             "of the trial-vectorized batched engine (records are "
             "bit-identical — see docs/fi-engine.md)",
    )
    steering = parser.add_argument_group(
        "campaign steering (fi; see docs/steering.md)"
    )
    steering.add_argument(
        "--steer", action="store_true",
        help="adaptively allocate fi trials by surrogate-guided stratified "
             "importance sampling and stop early at --target-ci; --trials "
             "becomes the trial budget and unspent trials are reported as "
             "trials_saved (estimates stay unbiased for the uniform AVF)",
    )
    steering.add_argument(
        "--target-ci", type=_target_ci, default=0.02, metavar="HALFWIDTH",
        help="AVF confidence-interval half-width at which a steered "
             "campaign stops (default 0.02 at 95%% confidence)",
    )
    steering.add_argument(
        "--no-early-stop", action="store_true",
        help="spend the full --trials budget even after --target-ci is "
             "reached (still steered; useful for calibration runs)",
    )
    return parser


def build_report_parser():
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Render, list, diff, or export recorded runs "
                    "(see 'python -m repro <exp> --record').",
    )
    parser.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="run record: a record.jsonl file, a run directory, or a base "
             "directory of runs (newest record wins — the resolved record "
             "is printed to stderr); exactly two paths with --diff",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_runs",
        help="list every run record under PATH (one summary line each) "
             "instead of rendering one",
    )
    parser.add_argument(
        "--diff", action="store_true",
        help="compare two run records: outcome-histogram deltas with a "
             "chi-square homogeneity flag, per-layer time deltas, counter "
             "deltas, and the config diff",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also export a Chrome trace-event JSON file (open it in "
             "Perfetto or chrome://tracing); includes the flight-recorder "
             "events when the run has an events.jsonl",
    )
    parser.add_argument(
        "--prom-out", default=None, metavar="FILE",
        help="also export the run's metrics in Prometheus text format",
    )
    return parser


def _load_record(path):
    """Resolve + load one record, noting base-dir resolution on stderr."""
    from repro.obs import load_run_record, resolve_record_path

    record_path, how = resolve_record_path(path)
    if how == "base-dir":
        print(
            f"resolved newest run record under {path}: {record_path} "
            f"(use --list to see all runs)",
            file=sys.stderr,
        )
    return load_run_record(record_path)


def run_report(argv):
    """``python -m repro report``: render/list/diff/export run records."""
    from repro.obs import diff_records, list_runs, render_diff, render_report

    args = build_report_parser().parse_args(argv)
    try:
        if args.list_runs:
            if len(args.paths) != 1:
                print("--list takes exactly one base directory",
                      file=sys.stderr)
                return 2
            runs = list_runs(args.paths[0])
            _print_table(
                f"runs under {args.paths[0]}",
                ("run id", "experiment", "started", "elapsed", "status",
                 "trials"),
                [
                    (r["run_id"], r["name"], r["started"],
                     f"{r['elapsed_s']:.2f} s", r["status"], r["trials"])
                    for r in runs
                ],
            )
            return 0
        if args.diff:
            if len(args.paths) != 2:
                print("--diff takes exactly two run records (A B)",
                      file=sys.stderr)
                return 2
            record_a = _load_record(args.paths[0])
            record_b = _load_record(args.paths[1])
            print(render_diff(diff_records(record_a, record_b)), end="")
            return 0
        if len(args.paths) != 1:
            print("report takes exactly one path (or two with --diff)",
                  file=sys.stderr)
            return 2
        record = _load_record(args.paths[0])
    except (FileNotFoundError, ValueError) as exc:
        print(f"cannot load run record: {exc}", file=sys.stderr)
        return 2
    print(render_report(record), end="")
    _export_record(record, args)
    return 0


def _export_record(record, args):
    """Write the --trace-out / --prom-out artifacts for a loaded record."""
    from pathlib import Path

    from repro.obs import EVENTS_FILENAME, read_events
    from repro.obs.export import write_chrome_trace, write_prometheus_text

    if args.trace_out:
        events_path = Path(record["path"]).parent / EVENTS_FILENAME
        events = read_events(events_path) if events_path.is_file() else []
        write_chrome_trace(record, args.trace_out, events=events)
        print(f"chrome trace: {args.trace_out}")
    if args.prom_out:
        write_prometheus_text(record, args.prom_out)
        print(f"prometheus metrics: {args.prom_out}")


def build_worker_parser():
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Run one campaign worker: dial a tcp scheduler "
                    "(--connect HOST:PORT) and execute the tasks it "
                    "streams down (see docs/distributed.md).",
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="the scheduler to dial (its --transport tcp --listen "
             "HOST:PORT address)",
    )
    parser.add_argument(
        "--id", default=None, metavar="WORKER_ID",
        help="stable worker id used in claims, heartbeats, and straggler "
             "attribution (default: w<pid>)",
    )
    parser.add_argument(
        "--poll", type=_timeout_seconds, default=0.05, metavar="SECONDS",
        help="idle-poll interval while there is no work (default 0.05s)",
    )
    parser.add_argument(
        "--auth", default=None, metavar="SECRET",
        help="shared handshake secret of the scheduler being dialed "
             "(default $REPRO_TCP_AUTH)",
    )
    return parser


def run_worker(argv):
    """``python -m repro worker``: tcp campaign worker."""
    args = build_worker_parser().parse_args(argv)
    if args.connect is None:
        print("repro worker needs --connect HOST:PORT (the scheduler's "
              "--listen address)", file=sys.stderr)
        return 2
    from repro.runtime.transports.tcp import parse_address, tcp_worker_main

    try:
        parse_address(args.connect)
    except ValueError as exc:
        print(f"--connect: {exc}", file=sys.stderr)
        return 2
    return tcp_worker_main(
        args.connect, worker_id=args.id, poll_s=args.poll, auth=args.auth,
    )


def build_watch_parser():
    parser = argparse.ArgumentParser(
        prog="repro watch",
        description="Tail a recorded run's events.jsonl for a live "
                    "campaign view (progress, throughput, ETA, stragglers).",
    )
    parser.add_argument(
        "path",
        help="run directory (or the events.jsonl itself) of a recorded run",
    )
    parser.add_argument(
        "--poll", type=_timeout_seconds, default=0.5, metavar="SECONDS",
        help="poll interval while following (default 0.5s)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="read what exists, print one status line, and exit "
             "(works on finished runs)",
    )
    return parser


def run_watch(argv):
    """``python -m repro watch <run-dir>``: live campaign view."""
    from pathlib import Path

    from repro.obs import EVENTS_FILENAME
    from repro.obs.watch import watch

    args = build_watch_parser().parse_args(argv)
    path = Path(args.path)
    events_path = path if path.is_file() else path / EVENTS_FILENAME
    if not events_path.is_file() and not args.once:
        # A live run may not have flushed its first events yet; only a
        # --once read of a missing file is a definite error.
        print(f"waiting for {events_path} ...", file=sys.stderr)
    if args.once and not events_path.is_file():
        print(f"no {EVENTS_FILENAME} at {events_path}", file=sys.stderr)
        return 2
    watch(events_path, follow=not args.once, poll_s=args.poll)
    return 0


def _describe(fn):
    """First docstring line of an experiment runner (its one-line summary)."""
    doc = (fn.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else "(no description)"


def run_list(args):
    print("available experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name:<10} {_describe(EXPERIMENTS[name])}")
    print("  report     Render/list/diff/export recorded runs "
          "(python -m repro report <run-dir>)")
    print("  watch      Tail a recorded run's event stream live "
          "(python -m repro watch <run-dir>)")
    print("  worker     Run a campaign worker (python -m repro worker "
          "--connect HOST:PORT)")
    print(
        "fig5/fig6/wall run on batched numpy Monte Carlo kernels; pass "
        "--reference-kernel\nto force the scalar reference path "
        "(see docs/performance.md)"
    )
    print(
        "fi runs on the trial-vectorized batched engine; pass "
        "--reference-engine\nto force the full-rerun reference path "
        "(see docs/fi-engine.md)"
    )
    print(
        "fi --steer --target-ci HW adaptively allocates trials and stops "
        "early at the target\nAVF half-width; --no-early-stop spends the "
        "full budget (see docs/steering.md)"
    )
    return 0


def _run_recorded(name, args):
    """Run one experiment under a RunRecorder writing to ``args.record``."""
    from repro import obs
    from repro.obs import RunRecorder

    config = {
        "experiment": name,
        "runs": args.runs,
        "instances": args.instances,
        "trials": args.trials,
        "jobs": args.jobs,
        "cache": not args.no_cache,
        "reference_kernel": args.reference_kernel,
        "reference_engine": args.reference_engine,
        "resume": args.resume,
        "unit_timeout": args.unit_timeout,
        "max_retries": args.max_retries,
        "transport": args.transport,
        "listen": args.listen,
        "workers": args.workers,
        "steer": args.steer,
        "target_ci": args.target_ci,
        "no_early_stop": args.no_early_stop,
    }
    # Every CLI experiment roots its seed streams at 0 (reproducibility).
    with RunRecorder(args.record, name=name, config=config, seed=0) as recorder:
        with obs.span(f"cli.{name}"):
            resolved = EXPERIMENTS[name](args)
        if isinstance(resolved, dict):
            # Resolved runtime choices (e.g. the fi engine and its
            # snapshot-ladder shape) so `report` can explain
            # where a campaign's time went.
            recorder.config["resolved"] = resolved
    print(f"run record: {recorder.path}")


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        return run_report(argv[1:])
    if argv and argv[0] == "watch":
        return run_watch(argv[1:])
    if argv and argv[0] == "worker":
        return run_worker(argv[1:])
    args = build_parser().parse_args(argv)
    if "list" in args.experiments:
        return run_list(args)
    unknown = [e for e in args.experiments if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print("run 'python -m repro list' to see the menu", file=sys.stderr)
        return 2
    for name in args.experiments:
        if args.record:
            _run_recorded(name, args)
        else:
            EXPERIMENTS[name](args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
