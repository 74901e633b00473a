"""Fault tolerance of the campaign runtime: retries, timeouts, respawns,
chaos injection, and checkpoint/resume (repro.runtime.{policy,chaos}, the
campaign journal in repro.runtime.cache, and the runner's recovery
paths)."""

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro import obs
from repro.runtime import (
    CampaignRunner,
    ChaosError,
    ChaosSpec,
    ChaosWorker,
    FAIL_FAST_POLICY,
    FaultPolicy,
    ProgressLog,
    ResultCache,
    UnitTimeoutError,
)
from repro.runtime.policy import BACKOFF_FACTOR, BACKOFF_JITTER

from tests.test_runtime import _draw_chunk


#: Fast-retry policy for tests: no real backoff waiting.
FAST = dict(backoff_base_s=0.001, poll_interval_s=0.02)


def _reference(n_trials=80, seed=5, chunk_size=7):
    return CampaignRunner(jobs=1, chunk_size=chunk_size).run_trials(
        _draw_chunk, n_trials, seed=seed
    )


class _Unpicklable:
    def __reduce__(self):
        raise pickle.PicklingError("by design")


def _is_unpicklable(item):
    return 1 if isinstance(item, _Unpicklable) else 0


class _ExplodingState:
    """Worker whose pickling probe hits a *real* bug, not a pickling error."""

    def __getstate__(self):
        raise RuntimeError("real workload bug, not a pickling limitation")

    def __call__(self, chunk):
        return [float(i) for i in chunk.indices]


class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(unit_timeout_s=0)
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)

    def test_backoff_is_exponential_with_bounded_jitter(self):
        policy = FaultPolicy(backoff_base_s=0.1)
        for attempt in (1, 2, 3):
            nominal = 0.1 * BACKOFF_FACTOR ** (attempt - 1)
            delay = policy.backoff_s(unit_index=4, attempt=attempt)
            assert (nominal * (1 - BACKOFF_JITTER) <= delay
                    <= nominal * (1 + BACKOFF_JITTER))

    def test_jitter_is_deterministic_per_unit_and_attempt(self):
        policy = FaultPolicy()
        assert policy.jitter_factor(3, 1) == policy.jitter_factor(3, 1)
        # distinct units / attempts draw from distinct child streams
        draws = {policy.jitter_factor(i, a) for i in range(5) for a in (1, 2)}
        assert len(draws) == 10

    def test_backoff_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            FaultPolicy().backoff_s(0, 0)


class TestSerialFallbackNarrowing:
    """Regression: only pickling errors may trigger the silent serial
    fallback; real workload errors surfaced by the probe must re-raise."""

    def test_nonpicklable_falls_back_and_warns(self):
        runner = CampaignRunner(jobs=4)
        offsets = iter(range(1000))  # closure over a generator: not picklable
        with obs.collecting():
            results = runner.run_trials(
                lambda chunk: [next(offsets) * 0 + i for i in chunk.indices],
                64, seed=0,
            )
            counters = obs.metrics_snapshot()["counters"]
        assert results == list(range(64))
        assert runner.stats.fallback_reason is not None
        assert runner.stats.jobs_used == 1
        assert counters["runtime.fault.serial_fallback"] == 1

    def test_real_workload_error_in_probe_is_reraised(self):
        runner = CampaignRunner(jobs=4)
        with pytest.raises(RuntimeError, match="real workload bug"):
            runner.run_trials(_ExplodingState(), 64, seed=0)
        assert runner.stats.fallback_reason is None

    def test_pickling_error_subclass_still_falls_back(self):
        runner = CampaignRunner(jobs=4)
        items = [_Unpicklable(), _Unpicklable(), _Unpicklable()]
        results = runner.map(_is_unpicklable, items,
                             item_keys=[("u", i) for i in range(3)])
        assert results == [1, 1, 1]
        assert "PicklingError" in runner.stats.fallback_reason


class TestChaosSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChaosSpec(raise_rate=0.7, exit_rate=0.5)
        with pytest.raises(ValueError):
            ChaosSpec(raise_rate=-0.1)

    def test_fate_is_deterministic_and_covers_kinds(self):
        spec = ChaosSpec(raise_rate=0.25, exit_rate=0.25, hang_rate=0.25,
                         slow_rate=0.25, seed=0)
        fates = [spec.fate(("unit", i)) for i in range(64)]
        assert fates == [spec.fate(("unit", i)) for i in range(64)]
        assert set(fates) == {"raise", "exit", "hang", "slow"}

    def test_zero_rates_touch_nothing(self):
        spec = ChaosSpec()
        assert all(spec.fate(i) is None for i in range(50))

    def test_chaos_stops_after_fail_attempts(self, tmp_path):
        spec = ChaosSpec(raise_rate=1.0, fail_attempts=2, seed=1)
        worker = ChaosWorker(lambda unit: unit * 10, spec, tmp_path)
        for _ in range(2):
            with pytest.raises(ChaosError):
                worker(3)
        assert worker(3) == 30  # third attempt goes through


class TestRetries:
    def test_serial_retries_recover_and_match_reference(self, tmp_path):
        reference = _reference()
        spec = ChaosSpec(raise_rate=0.5, seed=2)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path)
        runner = CampaignRunner(
            jobs=1, chunk_size=7, policy=FaultPolicy(max_retries=2, **FAST)
        )
        with obs.collecting():
            results = runner.run_trials(worker, 80, seed=5)
            counters = obs.metrics_snapshot()["counters"]
        assert results == reference
        assert runner.stats.retries > 0
        assert counters["runtime.fault.retries"] == runner.stats.retries

    def test_pool_retries_recover_and_match_reference(self, tmp_path):
        reference = _reference()
        spec = ChaosSpec(raise_rate=0.5, seed=2)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path)
        runner = CampaignRunner(
            jobs=4, chunk_size=7, policy=FaultPolicy(max_retries=2, **FAST)
        )
        assert runner.run_trials(worker, 80, seed=5) == reference
        assert runner.stats.retries > 0

    def test_exhausted_retries_reraise_original_error(self, tmp_path):
        spec = ChaosSpec(raise_rate=1.0, fail_attempts=99, seed=0)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path)
        runner = CampaignRunner(
            jobs=1, chunk_size=7, policy=FaultPolicy(max_retries=1, **FAST)
        )
        with pytest.raises(ChaosError):
            runner.run_trials(worker, 40, seed=5)
        assert runner.stats.retries == 1  # one retry, then give up

    def test_fail_fast_policy_never_retries(self, tmp_path):
        spec = ChaosSpec(raise_rate=1.0, seed=0)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path)
        runner = CampaignRunner(jobs=1, chunk_size=7, policy=FAIL_FAST_POLICY)
        with pytest.raises(ChaosError):
            runner.run_trials(worker, 40, seed=5)
        assert runner.stats.retries == 0


class TestTimeouts:
    def test_hung_unit_is_killed_and_retried(self, tmp_path):
        """The forked worker holding a hung unit is killed and replaced:
        the campaign finishes long before the hang would have ended."""
        reference = _reference(n_trials=42, chunk_size=7)
        spec = ChaosSpec(hang_rate=0.3, hang_s=10.0, seed=3)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path)
        policy = FaultPolicy(unit_timeout_s=0.5, max_retries=2, **FAST)
        runner = CampaignRunner(jobs=3, chunk_size=7, policy=policy)
        with obs.collecting():
            started = time.monotonic()
            results = runner.run_trials(worker, 42, seed=5)
            elapsed = time.monotonic() - started
            counters = obs.metrics_snapshot()["counters"]
        assert results == reference
        assert runner.stats.transport == "tcp"
        assert elapsed < spec.hang_s
        assert runner.stats.timeouts > 0
        assert runner.stats.pool_respawns > 0
        assert counters["runtime.fault.timeouts"] == runner.stats.timeouts
        assert counters["runtime.fault.pool_respawns"] == runner.stats.pool_respawns

    def test_timeout_exhaustion_raises_unit_timeout_error(self, tmp_path):
        spec = ChaosSpec(hang_rate=1.0, hang_s=10.0, fail_attempts=99, seed=0)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path)
        policy = FaultPolicy(unit_timeout_s=0.3, max_retries=0, **FAST)
        runner = CampaignRunner(jobs=2, chunk_size=7, policy=policy)
        with pytest.raises(UnitTimeoutError):
            runner.run_trials(worker, 14, seed=5)


class TestBrokenPoolRecovery:
    def test_worker_death_respawns_pool_and_matches_reference(self, tmp_path):
        """Dead forked workers are replaced and their units requeued."""
        reference = _reference()
        spec = ChaosSpec(exit_rate=0.3, seed=4)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path)
        policy = FaultPolicy(max_retries=4, **FAST)
        runner = CampaignRunner(jobs=4, chunk_size=7, policy=policy)
        assert runner.run_trials(worker, 80, seed=5) == reference
        assert runner.stats.transport == "tcp"
        assert runner.stats.pool_respawns > 0
        assert runner.stats.requeues > 0


class _InterruptAfter:
    """Progress callback that simulates SIGINT after N events."""

    def __init__(self, n):
        self.n = n
        self.seen = 0

    def __call__(self, event):
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt


class TestResume:
    """The acceptance contract: interrupted + resumed == uninterrupted,
    bit for bit, serially and in parallel."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_interrupt_then_resume_is_bit_identical(self, tmp_path, jobs):
        reference = _reference(n_trials=90, chunk_size=9)
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(
                jobs=jobs, chunk_size=9, cache=cache,
                progress=_InterruptAfter(3),
            ).run_trials(_draw_chunk, 90, seed=5)
        resumed = CampaignRunner(jobs=jobs, chunk_size=9, cache=cache,
                                 resume=True)
        assert resumed.run_trials(_draw_chunk, 90, seed=5) == reference
        assert resumed.stats.resumed
        assert resumed.stats.journaled_units > 0
        assert (resumed.stats.units_executed + resumed.stats.units_cached
                == resumed.stats.units_total)

    def test_chaos_plus_interrupt_plus_resume_is_bit_identical(self, tmp_path):
        reference = _reference(n_trials=90, chunk_size=9)
        cache = ResultCache(tmp_path / "cache")
        spec = ChaosSpec(raise_rate=0.3, seed=6)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path / "chaos")
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(
                jobs=4, chunk_size=9, cache=cache,
                policy=FaultPolicy(max_retries=3, **FAST),
                progress=_InterruptAfter(4),
            ).run_trials(worker, 90, seed=5)
        resumed = CampaignRunner(jobs=4, chunk_size=9, cache=cache,
                                 policy=FaultPolicy(max_retries=3, **FAST),
                                 resume=True)
        assert resumed.run_trials(worker, 90, seed=5) == reference

    def test_resume_requires_cache(self):
        with pytest.raises(ValueError, match="resume requires"):
            CampaignRunner(resume=True)

    def test_resume_of_fresh_campaign_just_runs(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = CampaignRunner(jobs=1, chunk_size=7, cache=cache, resume=True)
        assert runner.run_trials(_draw_chunk, 21, seed=5) == _reference(
            n_trials=21
        )
        assert runner.stats.journaled_units == 0

    def test_interrupt_is_journaled(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(
                jobs=1, chunk_size=7, cache=cache, progress=_InterruptAfter(2),
            ).run_trials(_draw_chunk, 70, seed=5)
        # The marker is on disk: a fresh reader of the store sees it.
        assert len(ResultCache(tmp_path / "cache").interrupted()) == 1
        # Values and journal share the campaign's one segment file.
        assert len(os.listdir(tmp_path / "cache")) == 1

    def test_sigkilled_writer_resumes_bit_identically(self, tmp_path):
        reference = _reference(n_trials=90, chunk_size=9)
        child = multiprocessing.get_context("fork").Process(
            target=_run_until_killed, args=(tmp_path / "cache",)
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL
        (segment,) = (tmp_path / "cache").glob("*.seg")
        with open(segment, "ab") as fh:
            fh.write(segment.read_bytes()[:20])  # killed inside an append
        resumed = CampaignRunner(jobs=1, chunk_size=9,
                                 cache=ResultCache(tmp_path / "cache"),
                                 resume=True)
        assert resumed.run_trials(_draw_chunk, 90, seed=5) == reference
        assert resumed.stats.journaled_units > 0
        assert resumed.stats.units_executed > 0


class _KillAfter:
    def __init__(self, n):
        self.n = n

    def __call__(self, event):
        self.n -= 1
        if self.n <= 0:
            os.kill(os.getpid(), signal.SIGKILL)


def _run_until_killed(cache_dir):
    CampaignRunner(
        jobs=1, chunk_size=9, cache=ResultCache(cache_dir),
        progress=_KillAfter(4),
    ).run_trials(_draw_chunk, 90, seed=5)


class TestCampaignManifest:
    def test_replay_round_trip(self, tmp_path):
        journal = ResultCache(tmp_path).journal("deadbeef")
        journal.mark("u1", attempts=0)
        journal.mark("u2", attempts=2)
        replayed = ResultCache(tmp_path).journal("deadbeef")
        assert replayed.completed == {"u1": 0, "u2": 2}
        assert sum(d in replayed for d in ["u1", "u2", "u3"]) == 2
        assert not ResultCache(tmp_path).journal("other").completed

    def test_interrupt_marker_survives_replay(self, tmp_path):
        journal = ResultCache(tmp_path).journal("feed")
        journal.mark("u1")
        journal.note_interrupt()
        replayed = ResultCache(tmp_path).journal("feed")
        assert replayed.interrupted
        assert ResultCache(tmp_path).interrupted() == ["feed"]
        replayed.mark("u2")  # a resumed run, in its own segment
        assert not replayed.interrupted
        assert ResultCache(tmp_path).interrupted() == []
        assert ResultCache(tmp_path).journal("feed").completed == {
            "u1": 0, "u2": 0,
        }

    def test_torn_tail_is_tolerated(self, tmp_path):
        journal = ResultCache(tmp_path).journal("cafe")
        journal.mark("u1")
        journal.mark("u2")
        (segment,) = tmp_path.glob("*.seg")
        os.truncate(segment, segment.stat().st_size - 1)  # torn last frame
        replayed = ResultCache(tmp_path).journal("cafe")
        assert replayed.completed == {"u1": 0}
