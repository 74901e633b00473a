#!/usr/bin/env python
"""Distributed-fabric acceptance check: worker murder + ``--resume``.

Runs the same small fault-injection campaign four ways, the distributed
ones over the ``tcp`` transport:

1. **reference** — serial, inline transport, its own cache directory;
2. **worker-kill** — over tcp with two *independently spawned*
   ``python -m repro worker --connect`` processes (``workers=0``: the
   transport babysits nothing).  One worker gets a real ``SIGKILL`` the
   moment it holds a claim; the dropped connection voids the claim and
   the survivor finishes the campaign, which must match the reference
   **bit for bit**;
3. **interrupt** — a fresh distributed campaign is cut down by a real
   ``SIGINT`` partway through, leaving a partial journal behind;
4. **resume** — the interrupted campaign is re-launched with
   ``resume=True`` on the same cache, replays the journal, finishes the
   remainder, and must also match the reference bit for bit.

Exit status is nonzero if any distributed leg differs from the serial
reference in any byte, if the kill landed after the campaign had
already finished (the check proved nothing), if the survivor did no
work, or if the resume replayed no journaled units.  This is the
executable form of the worker-churn contract in ``docs/distributed.md``
("Surviving worker churn"); the ``dist-smoke`` CI job runs it on every
push.

Run locally with::

    PYTHONPATH=src python scripts/dist_smoke_check.py
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.arch import FaultInjector  # noqa: E402
from repro.arch import programs as P  # noqa: E402
from repro.runtime import (  # noqa: E402
    ChaosSpec,
    ChaosWorker,
    FaultPolicy,
    ResultCache,
    TcpTransport,
)
from repro.runtime.transports.tcp import AUTH_ENV  # noqa: E402

from _campaign_checks import SigintAfter, campaign_digest  # noqa: E402

# Tight backoff/poll so the check stays fast; a generous retry budget so
# a voided lease (the murdered worker's units) never exhausts a unit.
POLICY = FaultPolicy(max_retries=6, backoff_base_s=0.001,
                     poll_interval_s=0.02)
# Every unit sleeps 100 ms before executing (sleep only — results are
# untouched).  Without this the batched FI engine finishes a unit in
# well under a millisecond and the victim would usually complete its
# claim before the SIGKILL lands, leaving the lease-void recovery path
# untested.
SLOW = ChaosSpec(slow_rate=1.0, slow_s=0.1, fail_attempts=10**6, seed=1)
#: Heartbeat-staleness horizon: how long a half-open connection may stay
#: silent before its claims are voided.  Short keeps CI fast.
STALE_S = 2.0
#: Idle-poll of the externally spawned workers and of the transport.
POLL_S = 0.02


def _injector():
    return FaultInjector(P.checksum(10))


def _run(trials, cache, *, transport=None, resume=False, progress=None,
         slow_dir=None):
    injector = _injector()
    wrapper = None
    if slow_dir is not None:
        wrapper = lambda worker: ChaosWorker(worker, SLOW, slow_dir)  # noqa: E731
    result = injector.run_campaign(
        n_trials=trials, seed=0, jobs=1, cache=cache, chunk_size=16,
        policy=POLICY, resume=resume, progress=progress,
        worker_wrapper=wrapper, transport=transport,
    )
    return result, injector.last_run_stats


def _make_transport(workers):
    """Build the tcp transport for one leg."""
    return TcpTransport(workers=workers, poll_s=POLL_S,
                        worker_poll_s=POLL_S, stale_s=STALE_S)


def _spawn_external_worker(transport, worker_id):
    """Launch an independent ``python -m repro worker --connect``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env[AUTH_ENV] = transport.auth  # the handshake secret
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", transport.address,
         "--id", worker_id, "--poll", str(POLL_S)],
        env=env,
    )


def _wait_for_claim(transport, worker_id, alive, timeout_s=30.0):
    """Block until ``worker_id`` holds a claim; False if the run ends first."""
    deadline = time.time() + timeout_s
    while time.time() < deadline and alive():
        if worker_id in transport.claim_holders():
            return True
        time.sleep(0.005)
    return False


def _worker_kill_leg(trials, workdir, ref_digest):
    """Leg 2: SIGKILL a claiming external worker; survivors must finish."""
    cache = ResultCache(workdir / "cache-kill")
    transport = _make_transport(workers=0)
    victim = _spawn_external_worker(transport, "victim")
    survivor = _spawn_external_worker(transport, "survivor")
    outcome = {}

    def drive():
        try:
            outcome["result"], outcome["stats"] = _run(
                trials, cache, transport=transport,
                slow_dir=workdir / "slow-state",
            )
        except BaseException as exc:  # surfaced after join
            outcome["error"] = exc

    thread = threading.Thread(target=drive)
    try:
        thread.start()
        claimed = _wait_for_claim(transport, "victim", thread.is_alive)
        if not claimed:
            print("FAIL: victim worker never held a claim mid-run",
                  file=sys.stderr)
            return 1
        mid_run = thread.is_alive()
        victim.kill()
        print("  SIGKILLed the victim worker while it held a claim")
        thread.join(timeout=120)
        if thread.is_alive():
            print("FAIL: campaign did not recover from the worker kill",
                  file=sys.stderr)
            return 1
        if "error" in outcome:
            raise outcome["error"]
        if not mid_run:
            print("FAIL: kill landed after the campaign finished; the "
                  "check proved nothing", file=sys.stderr)
            return 1
        stats = outcome["stats"]
        if "survivor" not in stats.workers:
            print("FAIL: the surviving worker executed no units",
                  file=sys.stderr)
            return 1
        if stats.requeues == 0:
            print("FAIL: the victim's claim was never voided and "
                  "re-dispatched (lease-void path untested)",
                  file=sys.stderr)
            return 1
        digest = campaign_digest(outcome["result"])
        print(f"  survivors digest: {digest} "
              f"(requeues={stats.requeues} retries={stats.retries})")
        if digest != ref_digest:
            print("FAIL: post-kill campaign is not bit-identical to the "
                  "serial reference", file=sys.stderr)
            return 1
        print("  OK: mid-run SIGKILL, survivors bit-identical")
        return 0
    finally:
        victim.kill()
        survivor.kill()
        victim.wait()
        survivor.wait()
        transport.shutdown()


def _resume_leg(trials, workdir, ref_digest):
    """Legs 3+4: SIGINT a distributed campaign, resume it, compare."""
    cache = ResultCache(workdir / "cache-resume")
    interrupted = False
    transport = _make_transport(workers=2)
    try:
        _run(trials, cache, transport=transport, progress=SigintAfter(3))
    except KeyboardInterrupt:
        interrupted = True
    finally:
        transport.shutdown()
    if not interrupted:
        print("FAIL: SIGINT did not interrupt the tcp campaign",
              file=sys.stderr)
        return 1
    # Ask a fresh reader of the store, so the marker must be on disk.
    journaled = ResultCache(cache.path).interrupted()
    if len(journaled) != 1:
        print("FAIL: interrupt left no journaled interrupt marker behind",
              file=sys.stderr)
        return 1
    print(f"  interrupted after SIGINT; journaled campaign: {journaled[0][:16]}")

    transport = _make_transport(workers=2)
    try:
        resumed, stats = _run(trials, cache, transport=transport,
                              resume=True)
    finally:
        transport.shutdown()
    digest = campaign_digest(resumed)
    print(f"  resumed digest:   {digest} "
          f"(journaled_units={stats.journaled_units})")
    if stats.journaled_units == 0:
        print("FAIL: resume replayed no journaled units (interrupt landed "
              "before any unit completed?)", file=sys.stderr)
        return 1
    if digest != ref_digest:
        print("FAIL: resumed tcp campaign is not bit-identical to the "
              "serial reference", file=sys.stderr)
        return 1
    print("  OK: SIGINT + --resume over tcp is bit-identical")
    return 0


def check(trials, workdir):
    workdir = Path(workdir)
    print(f"[dist-smoke] transport=tcp trials={trials}")
    reference, _ = _run(trials, ResultCache(workdir / "cache-reference"))
    ref_digest = campaign_digest(reference)
    print(f"  reference digest: {ref_digest}")
    status = _worker_kill_leg(trials, workdir, ref_digest)
    status |= _resume_leg(trials, workdir, ref_digest)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=320,
                        help="campaign size (default 320; 20 units of 16)")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    args = parser.parse_args(argv)

    if args.workdir is not None:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
        return check(args.trials, args.workdir)
    with tempfile.TemporaryDirectory(prefix="dist-smoke-") as workdir:
        return check(args.trials, workdir)


if __name__ == "__main__":
    sys.exit(main())
