#!/usr/bin/env python
"""Chaos + SIGINT + ``--resume`` acceptance check.

Runs the same small fault-injection campaign three ways:

1. **reference** — uninterrupted, no chaos, its own cache directory;
2. **chaos** — the chunk worker is wrapped in
   :class:`repro.runtime.ChaosWorker` so some units crash the worker
   process outright and others raise, and the campaign is interrupted by
   a real ``SIGINT`` partway through.  Completed units are journaled in
   the campaign manifest as they finish;
3. **resume** — the same campaign is re-launched with ``resume=True`` on
   the same cache (chaos still active), replays the journal, finishes
   the remainder, and must match the reference **bit for bit**.

Exit status is nonzero if the resumed records differ from the reference
in any byte, if the interrupt did not leave a partial journal behind, or
if the resume did not actually replay journaled units.  This is the
executable form of the determinism contract in ``docs/campaigns.md``
("Fault tolerance & resume"); the ``chaos-resume`` CI job runs it
serially and with ``--jobs 4`` (four forked tcp workers) on every
push.  With ``--steer`` the
same three legs run the surrogate-steered adaptive campaign
(``docs/steering.md``) — the resumed run must additionally reproduce
the reference's steering summary (rounds, trajectory, estimate).

Run locally with::

    PYTHONPATH=src python scripts/chaos_resume_check.py --jobs 4 --record runs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.arch import FaultInjector, SteeringConfig  # noqa: E402
from repro.arch import programs as P  # noqa: E402
from repro.runtime import ChaosSpec, ChaosWorker, FaultPolicy, ResultCache  # noqa: E402

# Chaos mix: ~1 in 4 units raises, ~1 in 8 kills its worker process.
# First attempt of a doomed unit fails; retries succeed (fail_attempts=1).
CHAOS = ChaosSpec(raise_rate=0.25, exit_rate=0.125, seed=7)
# Tight backoff/poll so the check stays fast; a generous retry budget
# so chaos never exhausts a unit.
POLICY = FaultPolicy(max_retries=6, backoff_base_s=0.001,
                     poll_interval_s=0.02)


class _SigintAfter:
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


def _injector():
    return FaultInjector(P.checksum(10))


def _run(jobs, trials, cache, *, chaos_dir=None, resume=False, progress=None,
         steer=False):
    injector = _injector()
    wrapper = None
    if chaos_dir is not None:
        wrapper = lambda worker: ChaosWorker(worker, CHAOS, chaos_dir)  # noqa: E731
    if steer:
        # The steered campaign journals adaptive rounds in the same
        # manifest; round sealing replays on_result from cache hits, so
        # the resumed run must regenerate the exact same rounds.
        result = injector.run_steered_campaign(
            budget=trials, seed=0, jobs=jobs, cache=cache,
            config=SteeringConfig(), policy=POLICY, resume=resume,
            progress=progress, worker_wrapper=wrapper,
        )
    else:
        result = injector.run_campaign(
            n_trials=trials, seed=0, jobs=jobs, cache=cache, chunk_size=16,
            policy=POLICY, resume=resume, progress=progress,
            worker_wrapper=wrapper,
        )
    return result, injector.last_run_stats


def _record_run(record_dir, name, jobs, trials, fn):
    """Run ``fn`` under a RunRecorder when ``record_dir`` is set."""
    if record_dir is None:
        return fn()
    from repro import obs
    from repro.obs import RunRecorder

    config = {"experiment": "chaos-resume-check", "leg": name,
              "jobs": jobs, "trials": trials}
    with RunRecorder(Path(record_dir) / name, name=f"chaos-{name}",
                     config=config, seed=0) as recorder:
        with obs.span(f"ci.chaos_resume.{name}"):
            out = fn()
    print(f"  run record ({name}): {recorder.path}")
    return out


def check(jobs, trials, workdir, record_dir, steer=False):
    workdir = Path(workdir)
    mode = "steered" if steer else "uniform"
    print(f"[chaos-resume] jobs={jobs} trials={trials} mode={mode}")

    # Leg 1: uninterrupted reference on a pristine cache, no chaos.
    ref_cache = ResultCache(workdir / "cache-reference")
    reference, _ = _record_run(
        record_dir, "reference", jobs, trials,
        lambda: _run(jobs, trials, ref_cache, steer=steer),
    )
    ref_digest = campaign_digest(reference)
    print(f"  reference digest: {ref_digest}")

    # Leg 2: chaos + one SIGINT partway through.  Chaos state (per-unit
    # attempt counters) persists across the interrupt so already-failed
    # units succeed on their retry after resume, like a real flaky host.
    chaos_cache = ResultCache(workdir / "cache-chaos")
    chaos_dir = workdir / "chaos-state"
    interrupted = False
    try:
        _run(jobs, trials, chaos_cache, chaos_dir=chaos_dir,
             progress=_SigintAfter(3), steer=steer)
    except KeyboardInterrupt:
        interrupted = True
    if not interrupted:
        print("FAIL: SIGINT did not interrupt the chaos campaign", file=sys.stderr)
        return 1
    manifests = list((chaos_cache.path / "manifests").glob("*.jsonl"))
    if not manifests:
        print("FAIL: interrupt left no campaign manifest behind", file=sys.stderr)
        return 1
    print(f"  interrupted after SIGINT; manifest: {manifests[0].name}")

    # Leg 3: resume on the same cache, chaos still active.
    resumed, stats = _record_run(
        record_dir, "resumed", jobs, trials,
        lambda: _run(jobs, trials, chaos_cache, chaos_dir=chaos_dir,
                     resume=True, steer=steer),
    )
    res_digest = campaign_digest(resumed)
    print(f"  resumed digest:   {res_digest}")
    print(f"  resumed stats: journaled_units={stats.journaled_units} "
          f"retries={stats.retries} pool_respawns={stats.pool_respawns}")

    if stats.journaled_units == 0:
        print("FAIL: resume replayed no journaled units (interrupt landed "
              "before any unit completed?)", file=sys.stderr)
        return 1
    if res_digest != ref_digest:
        print("FAIL: resumed campaign is not bit-identical to the reference",
              file=sys.stderr)
        return 1
    if steer and resumed.steering != reference.steering:
        print("FAIL: resumed steering summary (rounds/trajectory/estimate) "
              "differs from the reference", file=sys.stderr)
        return 1
    print(f"  OK: chaos + SIGINT + resume is bit-identical "
          f"(jobs={jobs}, mode={mode})")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for all three legs (default 1)")
    parser.add_argument("--trials", type=int, default=192,
                        help="campaign size (default 192; 12 units of 16)")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    parser.add_argument("--record", default=None, metavar="DIR",
                        help="write reference/resumed run records under DIR")
    parser.add_argument("--steer", action="store_true",
                        help="run the surrogate-steered campaign instead of "
                             "the uniform one (--trials becomes the budget; "
                             "docs/steering.md)")
    args = parser.parse_args(argv)

    if args.workdir is not None:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
        return check(args.jobs, args.trials, args.workdir, args.record,
                     steer=args.steer)
    with tempfile.TemporaryDirectory(prefix="chaos-resume-") as workdir:
        return check(args.jobs, args.trials, workdir, args.record,
                     steer=args.steer)


if __name__ == "__main__":
    sys.exit(main())
