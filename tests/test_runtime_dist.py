"""Distributed campaign fabric: transport parity, tcp chaos and worker
churn, liveness and stale-report handling, concurrent cache writers,
FI campaigns over tcp, and per-worker attribution
(repro.runtime.{scheduler,transports} et al.)."""

import json
import os
import pickle
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.runtime import (
    MISS,
    CampaignRunner,
    ChaosSpec,
    ChaosWorker,
    FaultPolicy,
    InlineTransport,
    ResultCache,
    TcpTransport,
    create_transport,
)
from repro.runtime.transports import TRANSPORTS, Task
from repro.runtime.transports.base import TransportContext
from repro.runtime.transports.tcp import AUTH_ENV, _Conn, _dial
from repro.runtime.transports.wire import (
    KIND_MSG,
    WireError,
    client_handshake,
    encode_frame,
    encode_message,
)

from tests.test_runtime import _draw_chunk, _square

#: Fast-retry policy for tests: no real backoff waiting.
FAST = dict(backoff_base_s=0.001, poll_interval_s=0.02)

#: Short heartbeat-staleness so dead-worker detection fits a test budget.
STALE = 2.0


def _reference(n_trials=60, seed=5, chunk_size=6):
    return CampaignRunner(jobs=1, chunk_size=chunk_size).run_trials(
        _draw_chunk, n_trials, seed=seed
    )


def _tcp_options(workers, **extra):
    options = {"workers": workers, "stale_s": STALE}
    options.update(extra)
    return options


def _external_worker(address, worker_id, auth):
    """Launch ``repro worker --connect`` as an independent process."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env[AUTH_ENV] = auth
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", address, "--id", worker_id, "--poll", "0.02",
        ],
        env=env, stdout=subprocess.DEVNULL,
    )


def _peer_transport(**kwargs):
    """A listening transport plus one authenticated, hello'd fake peer.

    Returns ``(transport, conn, theirs)``: ``conn`` is the scheduler's
    view of the peer, ``theirs`` the socket the test writes through.
    """
    transport = TcpTransport(workers=0, **kwargs)
    transport.ensure_listening()
    ours, theirs = socket.socketpair()
    ours.settimeout(0.0)
    conn = _Conn(ours, ("peer", 0))
    conn.authed = True
    conn.worker_id = "rogue"
    transport._conns.append(conn)
    transport._selector.register(ours, selectors.EVENT_READ, conn)
    transport._token = "tok"
    return transport, conn, theirs


def _assign(transport, conn, task_id="t1", indices=(0, 1)):
    """Put a task in flight on ``conn`` without a real dispatch."""
    task = Task(task_id=task_id, indices=tuple(indices),
                items=tuple((i,) for i in indices))
    transport._inflight[task_id] = task
    conn.assigned.add(task_id)
    return task


class TestTransportRegistry:
    def test_create_transport_by_name(self):
        assert isinstance(create_transport("inline"), InlineTransport)
        assert set(TRANSPORTS) == {"inline", "tcp"}

    def test_pool_transport_is_gone(self):
        """``pool`` is not a transport name (local workers are forked)."""
        with pytest.raises(ValueError, match="unknown transport 'pool'"):
            create_transport("pool")

    def test_unknown_transport_name_lists_known(self):
        with pytest.raises(ValueError, match="inline"):
            create_transport("carrier-pigeon")

    def test_runner_rejects_bad_transport_types(self):
        with pytest.raises(TypeError, match="transport"):
            CampaignRunner(transport=42)
        with pytest.raises(ValueError, match="transport_options"):
            CampaignRunner(transport_options={"workers": 2})

    def test_create_tcp_by_name(self):
        transport = create_transport("tcp", workers=1)
        assert isinstance(transport, TcpTransport)
        transport.shutdown()

    @pytest.mark.parametrize("name,kwargs", [
        ("inline", {"workers": 2}),
        ("tcp", {"worker": 2}),
        ("tcp", {"listen": "host:1"}),
        ("tcp", {"once": True}),
        ("tcp", {"shared_cache": True}),
        ("tcp", {"queue_depth": 1}),
    ])
    def test_bad_options_name_the_backend(self, name, kwargs):
        """A kwarg the backend's constructor rejects surfaces as a
        ValueError naming the backend, not a bare TypeError."""
        with pytest.raises(ValueError, match=f"transport {name!r} rejected"):
            create_transport(name, **kwargs)

    @pytest.mark.parametrize("factory,kwargs", [
        (FaultPolicy, {"lease_timeout_s": 1.0}),
        (FaultPolicy, {"target_task_s": 0.2}),
        (FaultPolicy, {"jitter_seed": 1}),
        (FaultPolicy, {"backoff_factor": 2.0}),
        (FaultPolicy, {"backoff_jitter": 0.1}),
        (TcpTransport, {"shared_cache": True}),
        (TcpTransport, {"queue_depth": 2}),
        (CampaignRunner, {"manifest_dir": "manifests"}),
    ])
    def test_removed_keywords_raise_type_error(self, factory, kwargs):
        """Options nothing set are gone, not silently ignored."""
        with pytest.raises(TypeError):
            factory(**kwargs)

    def test_tcp_rejects_malformed_listen_address(self):
        from repro.runtime.transports.tcp import parse_address

        for bad in ("nohost", "host:notaport", "host:-1", ":"):
            with pytest.raises(ValueError):
                parse_address(bad)
        assert parse_address("0.0.0.0:9100") == ("0.0.0.0", 9100)


class TestDescribeRoundTrip:
    """Every backend's describe() record lands in the campaign notes
    (and from there in recorded run documents) with its live config."""

    def _last_note(self):
        notes = obs.campaign_notes()
        assert notes
        return notes[-1]["transport_info"]

    def test_inline_and_pool(self):
        """jobs=1 runs inline; jobs=2 picks tcp with two forked workers."""
        with obs.collecting():
            CampaignRunner(jobs=1).run_trials(_draw_chunk, 6, seed=5)
            assert self._last_note() == {"transport": "inline"}
            CampaignRunner(jobs=2, chunk_size=6).run_trials(
                _draw_chunk, 12, seed=5
            )
            info = self._last_note()
        assert info["transport"] == "tcp"
        assert info["workers"] == 2
        assert info["address"].startswith("127.0.0.1:")

    def test_tcp_with_cache(self, tmp_path):
        """A cached tcp run records the same fields as an uncached one:
        values stream over the wire either way."""
        with obs.collecting():
            CampaignRunner(
                jobs=1, cache=ResultCache(tmp_path / "cache"),
                policy=FaultPolicy(**FAST), transport="tcp",
                transport_options=_tcp_options(1),
            ).run_trials(_draw_chunk, 12, seed=5)
            info = self._last_note()
        assert set(info) == {"transport", "address", "workers"}
        assert info["transport"] == "tcp"
        assert info["workers"] == 1

    def test_tcp_reports_bound_address(self):
        """The recorded address is the *bound* port, not the 0 the
        transport was configured with."""
        with obs.collecting():
            CampaignRunner(
                jobs=1, policy=FaultPolicy(**FAST), transport="tcp",
                transport_options={"workers": 1},
            ).run_trials(_draw_chunk, 12, seed=5)
            info = self._last_note()
        assert info["transport"] == "tcp"
        host, port = info["address"].rsplit(":", 1)
        assert int(port) > 0
        assert info["workers"] == 1


class TestTransportParity:
    """Every backend must reproduce the inline reference bit-for-bit."""

    def test_pool_matches_inline(self):
        """The automatic parallel backend (forked tcp workers)."""
        reference = _reference()
        runner = CampaignRunner(jobs=2, chunk_size=6)
        assert runner.run_trials(_draw_chunk, 60, seed=5) == reference
        assert runner.stats.transport == "tcp"

    def test_fully_cached_rerun_forks_no_worker(self, tmp_path, monkeypatch):
        """Workers are forked on the first submission, so a rerun that
        the cache satisfies entirely never forks one."""
        cache = ResultCache(tmp_path / "cache")
        first = CampaignRunner(jobs=2, chunk_size=6, cache=cache)
        assert first.run_trials(_draw_chunk, 60, seed=5) == _reference()
        forks = []
        original = TcpTransport._fork_worker
        monkeypatch.setattr(
            TcpTransport, "_fork_worker",
            lambda self: forks.append(self) or original(self),
        )
        rerun = CampaignRunner(jobs=2, chunk_size=6, cache=cache)
        assert rerun.run_trials(_draw_chunk, 60, seed=5) == _reference()
        assert rerun.stats.transport == "tcp"
        assert rerun.stats.units_cached == rerun.stats.units_total
        assert forks == []

    def test_tcp_map_with_shared_cache_matches_inline(self, tmp_path):
        """Mapped items keyed by ``item_keys``: values come back over the
        wire, the scheduler stores each under the item's digest, and a
        rerun sharing the cache is served from it."""
        items = [float(i) for i in range(18)]
        keys = [("i", i) for i in range(18)]
        reference = CampaignRunner(jobs=1).map(
            _square, items, key=("sq",), item_keys=keys
        )
        cache = ResultCache(tmp_path / "cache")
        for _ in range(2):
            runner = CampaignRunner(
                jobs=2, cache=cache, policy=FaultPolicy(**FAST),
                transport="tcp", transport_options={"workers": 2},
            )
            assert runner.map(
                _square, items, key=("sq",), item_keys=keys
            ) == reference
        assert runner.stats.units_cached == runner.stats.units_total

    def test_explicit_transport_instance_is_not_shut_down(self, tmp_path):
        """A caller-owned transport survives close(); its warm worker
        switches to the second run's payload."""
        transport = TcpTransport(workers=1, stale_s=STALE)
        try:
            runner = CampaignRunner(
                jobs=1, chunk_size=6, cache=ResultCache(tmp_path / "cache"),
                policy=FaultPolicy(**FAST), transport=transport,
            )
            first = runner.run_trials(_draw_chunk, 30, seed=5)
            # The forked worker survives close() for reuse by a second run.
            assert transport.worker_pids()
            second = CampaignRunner(
                jobs=1, chunk_size=6, cache=ResultCache(tmp_path / "cache2"),
                policy=FaultPolicy(**FAST), transport=transport,
            ).run_trials(_draw_chunk, 30, seed=6)
            assert first == _reference(n_trials=30)
            assert second == _reference(n_trials=30, seed=6)
        finally:
            transport.shutdown()
        assert not transport.worker_pids()


class TestWorkerChurn:
    """Kill any subset of tcp workers mid-run: survivors (or a
    --resume) complete bit-identically to the inline reference."""

    def test_survivors_complete_after_midrun_kill(self, tmp_path):
        reference = _reference(n_trials=60, chunk_size=3)
        # Slow every unit down so the kill lands mid-run.
        spec = ChaosSpec(slow_rate=1.0, slow_s=0.05, fail_attempts=10 ** 6)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path / "chaos")
        transport = TcpTransport(workers=0, stale_s=STALE)
        address = transport.address
        procs = [
            _external_worker(address, wid, transport.auth)
            for wid in ("ext1", "ext2")
        ]
        out = {}

        def run():
            runner = CampaignRunner(
                jobs=2, chunk_size=3, cache=ResultCache(tmp_path / "cache"),
                policy=FaultPolicy(**FAST), transport=transport,
            )
            out["records"] = runner.run_trials(worker, 60, seed=5)
            out["stats"] = runner.stats

        thread = threading.Thread(target=run)
        thread.start()
        try:
            # Wait until the victim has claimed work, then kill it cold.
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if "ext1" in transport.claim_holders():
                    break
                time.sleep(0.005)
            os.kill(procs[0].pid, signal.SIGKILL)
            procs[0].wait()
            thread.join(timeout=120)
            assert not thread.is_alive()
        finally:
            transport.shutdown()
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait()
        assert out["records"] == reference
        assert "ext2" in out["stats"].workers

    def test_midrun_interrupt_then_resume_is_bit_identical(self, tmp_path):
        """The resume runs on a fresh scheduler and fresh workers: only
        the cache and its manifest carry over."""
        reference = _reference(n_trials=60, chunk_size=4)
        cache = ResultCache(tmp_path / "cache")

        progressed = []

        def interrupt_after(event):
            progressed.append(event)
            if len(progressed) >= 4:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(
                jobs=2, chunk_size=4, cache=cache, progress=interrupt_after,
                policy=FaultPolicy(**FAST), transport="tcp",
                transport_options=_tcp_options(2),
            ).run_trials(_draw_chunk, 60, seed=5)
        resumed = CampaignRunner(
            jobs=2, chunk_size=4, cache=cache, resume=True,
            policy=FaultPolicy(**FAST), transport="tcp",
            transport_options=_tcp_options(2),
        )
        assert resumed.run_trials(_draw_chunk, 60, seed=5) == reference
        assert resumed.stats.resumed


def _slow_chunk(chunk):
    """A unit that outlives the heartbeat-staleness budget by itself."""
    time.sleep(2.5)
    return _draw_chunk(chunk)


class TestLivenessProtocol:
    """Heartbeat liveness must not depend on task length, worker-host
    clocks, or a worker-killing unit's patience."""

    def test_unit_slower_than_stale_budget_is_not_requeued(self):
        """The background heartbeat thread keeps a busy worker alive:
        one unit longer than stale_s must execute exactly once, not be
        presumed dead and requeued forever."""
        reference = _reference(n_trials=6, chunk_size=6)
        runner = CampaignRunner(
            jobs=1, chunk_size=6, policy=FaultPolicy(**FAST),
            transport="tcp", transport_options=_tcp_options(1, stale_s=1.5),
        )
        assert runner.run_trials(_slow_chunk, 6, seed=5) == reference
        assert runner.stats.requeues == 0

    def test_skewed_worker_clock_does_not_void_claims(self):
        """Staleness uses scheduler-local heartbeat arrival times: a
        worker whose wall clock is an hour behind must stay live as
        long as it keeps producing new heartbeat values."""
        transport, conn, theirs = _peer_transport(stale_s=0.3)
        try:
            _assign(transport, conn, task_id="t-skew", indices=(0,))
            theirs.sendall(encode_message({
                "kind": "claim", "token": "tok", "task": "t-skew",
                "worker": "rogue",
            }))
            for seq in range(3):
                # Longer than stale_s: only the heartbeat that arrives
                # before each poll can keep the connection alive.
                time.sleep(0.4)
                theirs.sendall(encode_message({
                    "kind": "heartbeat", "worker": "rogue", "pid": 12345,
                    "t": time.time() - 3600.0 + seq,  # an hour behind
                    "units_done": seq,
                }))
                outcomes, _ = transport.poll(timeout=0.0)
                assert not any(o.kind == "requeue" for o in outcomes)
            assert conn in transport._conns
            assert "t-skew" in transport._claims
        finally:
            theirs.close()
            transport.shutdown()

    def test_worker_killing_unit_exhausts_requeue_budget(self, tmp_path):
        """A unit that deterministically kills its claimant produces
        requeues, not errors; past max_requeues the loss must convert
        into a loud failure instead of a silent respawn loop."""
        spec = ChaosSpec(exit_rate=1.0, fail_attempts=10 ** 6, seed=3)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path / "chaos")
        runner = CampaignRunner(
            jobs=1, chunk_size=4,
            policy=FaultPolicy(max_retries=0, max_requeues=1, **FAST),
            transport="tcp", transport_options=_tcp_options(1),
        )
        with pytest.raises(RuntimeError, match="requeued"):
            runner.run_trials(worker, 4, seed=5)
        assert runner.stats.requeues == 2  # the cap + the fatal voiding

    def test_policy_rejects_bad_max_requeues(self):
        with pytest.raises(ValueError, match="max_requeues"):
            FaultPolicy(max_requeues=0)
        assert FaultPolicy(max_requeues=None).max_requeues is None


class TestQueueProtocol:
    """Task-queue edge cases over tcp: payloads that cannot travel and
    reports for tasks the scheduler no longer holds."""

    def test_unpicklable_worker_falls_back_to_inline(self, tmp_path):
        """A callable that will not pickle at all trips the scheduler's
        probe, and the campaign completes inline."""

        def local_worker(chunk):  # closures never pickle
            return [float(i) for i in chunk.indices]

        runner = CampaignRunner(
            jobs=1, chunk_size=6, cache=ResultCache(tmp_path / "cache"),
            policy=FaultPolicy(**FAST), transport="tcp",
            transport_options=_tcp_options(1),
        )
        records = runner.run_trials(local_worker, 12, seed=5)
        assert records == [float(i) for i in range(12)]
        assert runner.stats.fallback_reason is not None

    def test_unloadable_payload_reports_failure_not_hang(self):
        """A payload that pickles in the scheduler but will not rebuild
        in a worker process must fail the campaign loudly, not hang."""
        runner = CampaignRunner(
            jobs=1, chunk_size=6, policy=FaultPolicy(max_retries=1, **FAST),
            transport="tcp", transport_options=_tcp_options(1),
        )
        with pytest.raises(RuntimeError, match="payload"):
            runner.run_trials(_RemotelyUnloadable(), 12, seed=5)

    def test_stale_done_report_is_ignored(self):
        """A zombie's late result — for a task id that expired and was
        re-dispatched, or from a prior run's token — is dropped without
        an outcome and without dropping the (healthy) connection."""
        transport, conn, theirs = _peer_transport()
        try:
            live = _assign(transport, conn, task_id="live", indices=(0,))
            for token, task_id in (("tok", "zombie-000001"),
                                   ("old-run", "live")):
                theirs.sendall(encode_message({
                    "kind": "result", "token": token, "task": task_id,
                    "worker": "rogue",
                    "units": [{"index": 0, "ok": True, "elapsed_s": 0.0,
                               "value_pickle": pickle.dumps(1.0)}],
                }))
            outcomes, _ = transport.poll(timeout=0.2)
            assert outcomes == []
            assert conn in transport._conns
            assert transport._inflight == {"live": live}
        finally:
            theirs.close()
            transport.shutdown()


class TestCacheConcurrency:
    """Multi-writer semantics of the shared ResultCache: one segment each."""

    def test_concurrent_writers_leave_only_complete_entries(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_cache, args=(tmp_path / "cache",))
            for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        cache = ResultCache(tmp_path / "cache")
        for i in range(25):
            assert cache.get(f"digest-{i:02d}") == [i, i * i]
        # No partial frame was indexed: only the 25 digests, each read
        # back whole (a torn or misframed entry would fail its CRC).
        assert len(cache) == 25
        assert cache.stats.errors == 0
        assert len(list((tmp_path / "cache").glob("*.seg"))) == 4

    def test_losing_the_race_to_a_winner_counts_as_write(self, tmp_path):
        winner = ResultCache(tmp_path / "cache")
        loser = ResultCache(tmp_path / "cache")
        assert loser.get("d0") is MISS  # indexed before the winner wrote
        winner.put("d0", "value")
        before = loser.stats.as_dict()
        loser.put("d0", "value")  # the equivalent value, in its own segment
        after = loser.stats.as_dict()
        assert after["writes"] == before["writes"] + 1
        assert after["errors"] == before["errors"]
        assert loser.get("d0") == "value"
        assert ResultCache(tmp_path / "cache").get("d0") == "value"


class TestFiCampaignOverTcp:
    """FI injectors travel to tcp workers as pickles and rebuild their
    batched engine there."""

    @pytest.mark.parametrize("cached", [False, True])
    def test_fi_campaign_over_tcp_matches_inline(self, tmp_path, cached):
        """Workers rebuild the injector from its pickle (engine
        rebuilt on their side) and the records come back over the wire,
        with or without a result cache on the scheduler side."""
        from repro.arch import FaultInjector
        from repro.arch import programs as P

        injector = FaultInjector(P.checksum(8))
        reference = injector.run_campaign(n_trials=48, seed=0, chunk_size=8)
        # The inline run built the engine; it never travels in a pickle,
        # and the clone's own engine gives the same records.
        clone = pickle.loads(pickle.dumps(injector))
        assert clone._batched is None
        assert clone.run_campaign(
            n_trials=48, seed=0, chunk_size=8
        ).records == reference.records
        result = injector.run_campaign(
            n_trials=48, seed=0, chunk_size=8, jobs=2,
            cache=ResultCache(tmp_path / "cache") if cached else None,
            policy=FaultPolicy(**FAST),
            transport="tcp",
            transport_options=_tcp_options(2),
        )
        assert result.records == reference.records
        assert injector.last_run_stats.transport == "tcp"


class TestWorkerAttribution:
    """watch names the worker behind every straggler and heartbeat."""

    def test_watch_attributes_stragglers_to_workers(self):
        from repro.obs.watch import WatchState

        state = WatchState()
        state.consume([
            {"ev": "campaign.begin", "t": 0.0, "trials": 3},
            {"ev": "unit.submit", "t": 0.0, "unit": 0},
            {"ev": "unit.claim", "t": 0.0, "unit": 0, "worker": "w-slow"},
            {"ev": "unit.submit", "t": 0.0, "unit": 1},
            {"ev": "unit.finish", "t": 0.1, "unit": 1, "trials": 1,
             "worker": "w-fast"},
            {"ev": "unit.submit", "t": 0.1, "unit": 2},
            {"ev": "unit.finish", "t": 0.2, "unit": 2, "trials": 1,
             "worker": "w-fast"},
            {"ev": "worker.heartbeat", "t": 0.2, "worker": "w-slow",
             "lag_s": 0.0, "units_done": 0},
        ])
        assert state.stragglers(now=10.0) == [0]
        assert state.straggler_label(0) == "0@w-slow"
        line = state.status_line(now=10.0)
        assert "0@w-slow" in line
        assert set(state.workers) == {"w-slow", "w-fast"}
        event = state.progress_event()
        assert event.workers["w-fast"]["units_done"] == 2

    def test_runner_stats_name_pool_workers(self):
        runner = CampaignRunner(jobs=2, chunk_size=6)
        runner.run_trials(_draw_chunk, 36, seed=5)
        assert runner.stats.workers
        assert all(w.startswith("w") for w in runner.stats.workers)


def _big_chunk(chunk):
    """Worker whose per-unit result pickle exceeds one wire chunk."""
    return [b"\xa5" * (300 * 1024) + i.to_bytes(4, "big") for i in chunk.indices]


class TestTcpParity:
    """The socket transport must reproduce the inline reference exactly."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_tcp_matches_inline_without_cache(self, workers):
        """No cache in common: values stream over the wire."""
        reference = _reference()
        runner = CampaignRunner(
            jobs=workers, chunk_size=6, policy=FaultPolicy(**FAST),
            transport="tcp", transport_options={"workers": workers},
        )
        assert runner.run_trials(_draw_chunk, 60, seed=5) == reference
        assert runner.stats.transport == "tcp"
        assert runner.stats.workers  # outcomes attribute their executor

    def test_tcp_map_matches_inline(self):
        items = [float(i) for i in range(18)]
        reference = CampaignRunner(jobs=1).map(_square, items, key=("sq",))
        runner = CampaignRunner(
            jobs=2, policy=FaultPolicy(**FAST), transport="tcp",
            transport_options={"workers": 2},
        )
        assert runner.map(_square, items, key=("sq",)) == reference

    def test_large_values_stream_in_chunked_frames(self):
        """Result pickles past DEFAULT_CHUNK_BYTES travel chunked and
        reassemble bit-identically."""
        reference = CampaignRunner(jobs=1, chunk_size=3).run_trials(
            _big_chunk, 9, seed=5
        )
        runner = CampaignRunner(
            jobs=2, chunk_size=3, policy=FaultPolicy(**FAST),
            transport="tcp", transport_options={"workers": 2},
        )
        assert runner.run_trials(_big_chunk, 9, seed=5) == reference

    def test_explicit_tcp_instance_is_reused_across_runs(self):
        """close() keeps workers connected; a second campaign reuses
        them without respawning or re-listening."""
        transport = TcpTransport(workers=2)
        try:
            first = CampaignRunner(
                jobs=2, chunk_size=6, policy=FaultPolicy(**FAST),
                transport=transport,
            ).run_trials(_draw_chunk, 30, seed=5)
            pids = transport.worker_pids()
            assert pids
            second = CampaignRunner(
                jobs=2, chunk_size=6, policy=FaultPolicy(**FAST),
                transport=transport,
            ).run_trials(_draw_chunk, 30, seed=6)
            assert transport.worker_pids() == pids
            assert first == _reference(n_trials=30)
            assert second == _reference(n_trials=30, seed=6)
        finally:
            transport.shutdown()
        assert not transport.worker_pids()

    def test_unpicklable_worker_falls_back_to_inline(self):
        runner = CampaignRunner(
            jobs=2, policy=FaultPolicy(**FAST), transport="tcp",
            transport_options={"workers": 2},
        )
        offsets = iter(range(100))  # closure over a generator: not picklable
        records = runner.run_trials(
            lambda chunk: [float(i + next(offsets) * 0) for i in chunk.indices],
            12, seed=5,
        )
        assert records == [float(i) for i in range(12)]
        assert runner.stats.fallback_reason is not None
        assert runner.stats.transport == "tcp"  # the run started on tcp


class TestTcpFaults:
    """Worker death, chaos fates, and interrupt/resume over sockets."""

    def test_chaos_fates_bit_identical(self, tmp_path):
        reference = _reference(n_trials=40, chunk_size=5)
        spec = ChaosSpec(
            raise_rate=0.2, exit_rate=0.1, slow_rate=0.1,
            slow_s=0.01, fail_attempts=1, seed=7,
        )
        worker = ChaosWorker(_draw_chunk, spec, tmp_path / "chaos")
        runner = CampaignRunner(
            jobs=4, chunk_size=5, cache=ResultCache(tmp_path / "cache"),
            policy=FaultPolicy(max_retries=6, **FAST),
            transport="tcp", transport_options={"workers": 4},
        )
        assert runner.run_trials(worker, 40, seed=5) == reference

    @pytest.mark.parametrize("workers", [1, 4])
    def test_chaos_fates_with_hangs_bit_identical(self, tmp_path, workers):
        """Raise/exit/hang/slow fates with a result cache attached:
        retries and requeues never leave a wrong entry."""
        reference = _reference(n_trials=40, chunk_size=5)
        spec = ChaosSpec(
            raise_rate=0.2, exit_rate=0.1, hang_rate=0.1, slow_rate=0.1,
            hang_s=0.2, slow_s=0.01, fail_attempts=1, seed=7,
        )
        worker = ChaosWorker(_draw_chunk, spec, tmp_path / "chaos")
        runner = CampaignRunner(
            jobs=workers, chunk_size=5, cache=ResultCache(tmp_path / "cache"),
            policy=FaultPolicy(max_retries=6, **FAST),
            transport="tcp", transport_options=_tcp_options(workers),
        )
        assert runner.run_trials(worker, 40, seed=5) == reference
        assert runner.stats.transport == "tcp"

    def test_worker_death_requeues_without_retry_penalty(self, tmp_path):
        """A worker that hard-exits mid-unit loses its units as
        requeues, not errors: a zero-retry policy still completes."""
        reference = _reference(n_trials=20, chunk_size=4)
        # Two of the five units draw the exit fate.
        spec = ChaosSpec(exit_rate=0.5, fail_attempts=1, seed=3)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path / "chaos")
        runner = CampaignRunner(
            jobs=2, chunk_size=4,
            policy=FaultPolicy(max_retries=0, **FAST),
            transport="tcp", transport_options=_tcp_options(2),
        )
        assert runner.run_trials(worker, 20, seed=5) == reference
        assert runner.stats.requeues >= 1
        assert runner.stats.retries == 0

    def test_sigkilled_claimant_requeues_without_retry_penalty(self, tmp_path):
        """SIGKILL a connected worker holding a claim: the disconnect
        voids the claim immediately, survivors finish bit-identically,
        and a zero-retry policy is untouched (requeue, not error)."""
        reference = _reference(n_trials=60, chunk_size=4)
        spec = ChaosSpec(slow_rate=1.0, slow_s=0.03, fail_attempts=10 ** 6)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path / "chaos")
        transport = TcpTransport(workers=2)
        killed = []

        def kill_first_claimant():
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline and not killed:
                holders = transport.claim_holders()
                if holders:
                    victim = sorted(holders)[0]
                    pid = transport.connected_pids().get(victim)
                    if pid:
                        os.kill(pid, signal.SIGKILL)
                        killed.append(victim)
                        return
                time.sleep(0.005)

        killer = threading.Thread(target=kill_first_claimant)
        killer.start()
        try:
            runner = CampaignRunner(
                jobs=2, chunk_size=4,
                policy=FaultPolicy(max_retries=0, **FAST),
                transport=transport,
            )
            records = runner.run_trials(worker, 60, seed=5)
        finally:
            killer.join()
            transport.shutdown()
        assert killed, "no claim was ever observed to kill"
        assert records == reference
        assert runner.stats.requeues >= 1
        assert runner.stats.retries == 0

    def test_midrun_interrupt_then_resume_is_bit_identical(self, tmp_path):
        """SIGINT mid-campaign, then --resume semantics over the SAME
        still-connected transport: the continuation is exact."""
        reference = _reference(n_trials=40, chunk_size=4)
        cache = ResultCache(tmp_path / "cache")
        spec = ChaosSpec(slow_rate=1.0, slow_s=0.02, fail_attempts=10 ** 6)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path / "chaos")
        transport = TcpTransport(workers=2)
        progressed = []

        def interrupt_after(event):
            progressed.append(event)
            if len(progressed) >= 3:
                raise KeyboardInterrupt

        try:
            with pytest.raises(KeyboardInterrupt):
                CampaignRunner(
                    jobs=2, chunk_size=4, cache=cache,
                    progress=interrupt_after, policy=FaultPolicy(**FAST),
                    transport=transport,
                ).run_trials(worker, 40, seed=5)
            resumed = CampaignRunner(
                jobs=2, chunk_size=4, cache=cache, resume=True,
                policy=FaultPolicy(**FAST), transport=transport,
            )
            assert resumed.run_trials(worker, 40, seed=5) == reference
            assert resumed.stats.resumed
        finally:
            transport.shutdown()

    def test_connect_and_disconnect_events_are_emitted(self):
        with obs.collecting():
            CampaignRunner(
                jobs=1, chunk_size=6, policy=FaultPolicy(**FAST),
                transport="tcp", transport_options={"workers": 1},
            ).run_trials(_draw_chunk, 12, seed=5)
            events = obs.EVENTS.drain()
        kinds = [e["ev"] for e in events]
        assert "worker.connect" in kinds
        assert "worker.disconnect" in kinds  # shutdown() drops the conn
        connect = next(e for e in events if e["ev"] == "worker.connect")
        assert connect["worker"]


def _poll_until(transport, predicate, timeout_s=10.0):
    """Drive the transport's poll loop until ``predicate()`` holds."""
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        transport.poll(0.02)
        if predicate():
            return True
    return False


class TestTcpAuth:
    """The handshake gates the pickle layer: nothing an unauthenticated
    peer sends is ever deserialized (the remote-code-execution guard)."""

    def test_unauthenticated_bytes_are_never_unpickled(self, tmp_path):
        """A crafted pickle sent before auth must not execute — the
        connection dies at the frame layer, pickle.loads unreached."""
        marker = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (os.mkdir, (str(marker),))

        transport = TcpTransport(workers=0)
        try:
            host, port = transport.ensure_listening()
            sock = socket.create_connection((host, port), timeout=5)
            sock.sendall(encode_frame(KIND_MSG, pickle.dumps(Evil())))
            assert _poll_until(transport, lambda: not transport._conns)
            assert not marker.exists()
            sock.close()
        finally:
            transport.shutdown()

    def test_wrong_secret_is_dropped(self):
        transport = TcpTransport(workers=0, auth="right-secret")
        try:
            host, port = transport.ensure_listening()
            sock = socket.create_connection((host, port), timeout=5)
            outcome = {}

            def dial():
                try:
                    client_handshake(sock, "wrong-secret", timeout=5)
                    outcome["ok"] = True
                except (WireError, OSError) as exc:
                    outcome["error"] = exc

            thread = threading.Thread(target=dial)
            thread.start()
            deadline = time.time() + 10
            while thread.is_alive() and time.time() < deadline:
                transport.poll(0.02)
            thread.join(timeout=5)
            assert "error" in outcome
            assert not transport._conns
            sock.close()
        finally:
            transport.shutdown()

    def test_right_secret_handshakes_then_helloes(self):
        transport = TcpTransport(workers=0)
        try:
            host, port = transport.ensure_listening()
            sock = socket.create_connection((host, port), timeout=5)
            outcome = {}

            def dial():
                try:
                    client_handshake(sock, transport.auth, timeout=5)
                    sock.sendall(encode_message({
                        "kind": "hello", "worker": "dialer",
                        "pid": os.getpid(),
                    }))
                except (WireError, OSError) as exc:
                    outcome["error"] = exc

            thread = threading.Thread(target=dial)
            thread.start()
            assert _poll_until(transport, lambda: any(
                conn.worker_id == "dialer" for conn in transport._conns
            ))
            thread.join(timeout=5)
            assert "error" not in outcome
            sock.close()
        finally:
            transport.shutdown()

    def test_silent_connection_is_reaped_at_the_staleness_horizon(self):
        """A peer that never even answers the challenge (port scanner,
        half-opened client) is dropped, not leaked forever."""
        transport = TcpTransport(workers=0, stale_s=0.2)
        try:
            host, port = transport.ensure_listening()
            sock = socket.create_connection((host, port), timeout=5)
            assert _poll_until(transport, lambda: transport._conns)
            assert _poll_until(transport, lambda: not transport._conns)
            sock.close()
        finally:
            transport.shutdown()


class TestTcpMalformedPeers:
    """Garbage from an *authenticated* peer drops that peer and requeues
    its tasks — it must never abort the scheduler's poll loop."""

    @pytest.mark.parametrize("units", [
        [{"ok": True}],                              # no index at all
        [{"index": 99, "ok": True}],                 # index not in the task
        [{"index": 0, "ok": True}],                  # ok without a value
        "not-a-unit-list",                           # wrong field shape
    ])
    def test_malformed_result_drops_peer_and_requeues(self, units):
        transport, conn, theirs = _peer_transport()
        try:
            _assign(transport, conn)
            theirs.sendall(encode_message({
                "kind": "result", "token": "tok", "task": "t1",
                "worker": "rogue", "units": units,
            }))
            outcomes, _ = transport.poll(2.0)
            assert conn not in transport._conns
            assert {o.index for o in outcomes if o.kind == "requeue"} == {0, 1}
            assert "t1" not in transport._inflight
            assert "t1" not in transport._claims
        finally:
            theirs.close()
            transport.shutdown()

    def test_malformed_heartbeat_drops_peer_not_scheduler(self):
        transport, conn, theirs = _peer_transport()
        try:
            theirs.sendall(encode_message({
                "kind": "heartbeat", "worker": "rogue", "t": "not-a-time",
            }))
            assert _poll_until(transport, lambda: conn not in transport._conns)
        finally:
            theirs.close()
            transport.shutdown()


#: A campaign named ``transport="tcp"`` with no ``workers`` option;
#: prints whether it matched inline and the worker count it ran with.
_TCP_DEFAULT_WORKERS = """
import json
from repro.arch import FaultInjector
from repro.arch import programs as P
from repro.runtime import CampaignRunner
from tests.test_runtime import _draw_chunk

inline = CampaignRunner(jobs=1, chunk_size=6).run_trials(_draw_chunk, 60, seed=5)
runner = CampaignRunner(jobs=2, chunk_size=6, transport="tcp")
runner_ok = runner.run_trials(_draw_chunk, 60, seed=5) == inline
injector = FaultInjector(P.checksum(8))
reference = injector.run_campaign(n_trials=256, seed=1, chunk_size=64).records
records = injector.run_campaign(
    n_trials=256, seed=1, chunk_size=64, jobs=2, transport="tcp"
).records
print(json.dumps({
    "runner_ok": runner_ok,
    "runner_workers": runner.stats.transport_info["workers"],
    "fi_ok": records == reference,
    "fi_workers": injector.last_run_stats.transport_info["workers"],
}))
"""


class TestTcpDefaultWorkers:
    def test_named_tcp_without_options_forks_jobs_workers(self):
        """``transport="tcp"`` with no ``workers`` option forks ``jobs``
        workers.  Run in a subprocess with a timeout, so a campaign that
        forks nobody and waits forever fails instead of hanging."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        )
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _TCP_DEFAULT_WORKERS], cwd=root,
                env=env, capture_output=True, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("a tcp campaign without a workers option hung")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "runner_ok": True, "runner_workers": 2,
            "fi_ok": True, "fi_workers": 2,
        }


class TestTcpExternalWorkers:
    """Independently launched ``repro worker --connect`` processes."""

    def test_dialed_in_workers_run_the_campaign_then_drain(self):
        """workers=0 scheduler + two external dialers: parity holds and
        a STOP drains both gracefully (exit code 0).

        Both workers must finish their hello before the campaign runs: a
        worker still in its handshake when ``shutdown()`` sends STOP
        never reads it and redials the closed port until killed, and
        under load the campaign can finish before the slower one dials.
        """
        reference = _reference(n_trials=30, chunk_size=3)
        transport = TcpTransport(workers=0)
        host, port = transport.ensure_listening()
        procs = [
            _external_worker(f"{host}:{port}", wid, transport.auth)
            for wid in ("ext1", "ext2")
        ]
        try:
            assert _poll_until(transport, lambda: {"ext1", "ext2"} <= set(
                transport.connected_pids()
            ), timeout_s=30.0)
            runner = CampaignRunner(
                jobs=2, chunk_size=3, policy=FaultPolicy(**FAST),
                transport=transport,
            )
            records = runner.run_trials(_draw_chunk, 30, seed=5)
            assert records == reference
            assert set(runner.stats.workers) & {"ext1", "ext2"}
        finally:
            transport.shutdown()
            codes = []
            for proc in procs:
                try:
                    codes.append(proc.wait(timeout=20))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    codes.append("killed")
        assert codes == [0, 0]  # STOP drained both workers cleanly


class TestTcpNoDelay:
    """Both ends turn Nagle's algorithm off: every protocol frame is
    small, and one held back for the peer's delayed ACK stalls a task."""

    def test_both_ends_set_tcp_nodelay(self):
        transport = TcpTransport(workers=1)
        try:
            transport.open(TransportContext(worker=_square, collect=False))
            # The local worker is forked on the first submission.
            transport.submit(Task(task_id="t0", indices=(0,), items=(2.0,)))
            assert _poll_until(transport, lambda: any(
                conn.worker_id is not None for conn in transport._conns
            ), timeout_s=30.0)
            for conn in transport._conns:
                assert conn.sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            host, port = transport.ensure_listening()
            dialed = _dial(host, port)
            try:
                assert dialed.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            finally:
                dialed.close()
        finally:
            transport.shutdown()


def _refuse_rebuild():
    raise RuntimeError("this callable only exists in the scheduler process")


class _RemotelyUnloadable:
    """Pickles by reference fine; explodes when a *worker* rebuilds it."""

    def __reduce__(self):
        return (_refuse_rebuild, ())

    def __call__(self, chunk):
        return [float(i) for i in chunk.indices]


def _hammer_cache(cache_dir):
    """Concurrent-writer body (module-level: forked children import it)."""
    cache = ResultCache(cache_dir)
    for _ in range(20):
        for i in range(25):
            cache.put(f"digest-{i:02d}", [i, i * i])
    raise SystemExit(0)
