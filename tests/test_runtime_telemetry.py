"""Telemetry edge cases (repro.runtime.telemetry): ETA on resumed
campaigns, progress during worker respawns, and retry accounting."""

import io

import pytest

from repro.runtime import (
    CampaignRunner,
    ChaosSpec,
    ChaosWorker,
    FaultPolicy,
    ProgressEvent,
    ProgressLog,
    ResultCache,
    print_progress,
)

from tests.test_runtime import _draw_chunk
from tests.test_runtime_fault import FAST, _InterruptAfter


def _event(**overrides):
    base = dict(done=50, total=100, cached=0, elapsed_s=5.0,
                trials_per_sec=10.0, histogram={})
    base.update(overrides)
    return ProgressEvent(**base)


class TestEtaOnResumedCampaigns:
    def test_eta_none_while_only_journaled_units_replayed(self):
        # A resumed campaign's first event replays journaled units only:
        # done == cached, nothing executed, no throughput to extrapolate.
        event = _event(done=40, cached=40, trials_per_sec=0.0)
        assert event.executed == 0
        assert event.eta_s is None

    def test_eta_excludes_journaled_throughput(self):
        # 40 journaled + 10 executed in 2s: rate must be 5/s (not 25/s),
        # and the ETA must cover the 50 remaining trials at that rate.
        event = _event(done=50, cached=40, elapsed_s=2.0, trials_per_sec=5.0)
        assert event.executed == 10
        assert event.eta_s == pytest.approx(50 / 5.0)

    def test_resumed_campaign_events_extrapolate_from_executed_only(
            self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(
                jobs=1, chunk_size=7, cache=cache, progress=_InterruptAfter(3),
            ).run_trials(_draw_chunk, 70, seed=5)
        log = ProgressLog()
        resumed = CampaignRunner(jobs=1, chunk_size=7, cache=cache,
                                 resume=True, progress=log)
        resumed.run_trials(_draw_chunk, 70, seed=5)
        first = log.events[0]
        # The journal-replay event: all done trials are cached, no rate.
        assert first.cached == first.done > 0
        assert first.executed == 0
        assert first.eta_s is None
        # Once real execution starts, the rate counts executed trials only.
        executing = [e for e in log.events if e.executed > 0]
        assert executing
        for event in executing:
            assert event.trials_per_sec * event.elapsed_s == pytest.approx(
                event.executed, rel=0.05
            )
        assert log.last.done == 70

    def test_print_progress_says_all_from_cache_for_pure_replay(self):
        stream = io.StringIO()
        print_progress(_event(done=40, cached=40, trials_per_sec=0.0,
                              cache_hits=5), stream=stream)
        assert "all from cache" in stream.getvalue()


class TestProgressDuringPoolRespawn:
    def test_respawn_emits_progress_and_preserves_monotonicity(self, tmp_path):
        spec = ChaosSpec(exit_rate=0.3, seed=4)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path / "chaos")
        log = ProgressLog()
        policy = FaultPolicy(max_retries=4, **FAST)
        runner = CampaignRunner(jobs=4, chunk_size=7, policy=policy,
                                progress=log)
        runner.run_trials(worker, 80, seed=5)
        assert runner.stats.pool_respawns > 0
        # Respawn-time events exist (done may not have advanced, but the
        # campaign still reported in) ...
        assert any(e.pool_respawns > 0 for e in log.events)
        # ... and the stream stays monotonic in done and in respawns.
        dones = [e.done for e in log.events]
        assert dones == sorted(dones)
        respawns = [e.pool_respawns for e in log.events]
        assert respawns == sorted(respawns)
        assert log.last.pool_respawns == runner.stats.pool_respawns
        assert log.last.done == 80

    def test_print_progress_renders_respawns(self):
        stream = io.StringIO()
        print_progress(_event(pool_respawns=2), stream=stream)
        assert "2 respawns" in stream.getvalue()


class TestRetryAccounting:
    def test_event_retries_track_runner_stats(self, tmp_path):
        spec = ChaosSpec(raise_rate=0.5, seed=2)
        worker = ChaosWorker(_draw_chunk, spec, tmp_path / "chaos")
        log = ProgressLog()
        runner = CampaignRunner(jobs=1, chunk_size=7,
                                policy=FaultPolicy(max_retries=2, **FAST),
                                progress=log)
        runner.run_trials(worker, 80, seed=5)
        assert runner.stats.retries > 0
        assert log.last.retries == runner.stats.retries
        retries = [e.retries for e in log.events]
        assert retries == sorted(retries)

    def test_retries_default_to_zero_on_clean_runs(self):
        log = ProgressLog()
        CampaignRunner(jobs=1, chunk_size=10, progress=log).run_trials(
            _draw_chunk, 40, seed=0
        )
        assert all(e.retries == 0 and e.pool_respawns == 0 for e in log.events)

    def test_print_progress_renders_retries(self):
        stream = io.StringIO()
        print_progress(_event(retries=3), stream=stream)
        assert "3 retries" in stream.getvalue()
