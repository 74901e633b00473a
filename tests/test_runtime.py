"""Tests for the parallel campaign runtime (repro.runtime)."""

import os
import pickle

import numpy as np
import pytest

from repro.runtime import (
    MISS,
    CampaignRunner,
    ProgressLog,
    ResultCache,
    TrialChunk,
    chunk_bounds,
    stable_digest,
    trial_rng,
    trial_seed_sequence,
)


def _draw_chunk(chunk):
    """Toy chunk worker: one uniform draw per trial (module-level: picklable)."""
    return [float(rng.random()) for rng in chunk.rngs()]


def _square(x):
    return x * x


class TestSeeding:
    def test_matches_seedsequence_spawn(self):
        # The contract: trial i's stream IS the i-th spawned child.
        children = np.random.SeedSequence(42).spawn(8)
        for i, child in enumerate(children):
            ours = trial_seed_sequence(42, i)
            assert np.array_equal(
                ours.generate_state(4), child.generate_state(4)
            )

    def test_streams_independent_of_campaign_size(self):
        assert trial_rng(7, 5).random() == trial_rng(7, 5).random()
        ours = trial_seed_sequence(7, 5).generate_state(2)
        for n_trials in (6, 20):
            child = np.random.SeedSequence(7).spawn(n_trials)[5]
            assert np.array_equal(ours, child.generate_state(2))

    def test_distinct_trials_distinct_streams(self):
        draws = {trial_rng(0, i).random() for i in range(50)}
        assert len(draws) == 50

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            trial_seed_sequence(0, -1)


class TestChunking:
    def test_bounds_cover_range_exactly(self):
        bounds = chunk_bounds(100, 32)
        assert bounds == [(0, 32), (32, 64), (64, 96), (96, 100)]

    def test_empty_campaign(self):
        assert chunk_bounds(0) == []

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1)
        with pytest.raises(ValueError):
            chunk_bounds(10, 0)

    def test_chunk_streams_match_direct_streams(self):
        chunk = TrialChunk(seed=3, start=10, stop=14)
        assert len(chunk) == 4
        direct = [trial_rng(3, i).random() for i in range(10, 14)]
        assert [rng.random() for rng in chunk.rngs()] == direct


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = cache.key("ns", 1, [2, 3])
        assert cache.get(digest) is MISS
        cache.put(digest, {"answer": 42})
        assert cache.get(digest) == {"answer": 42}
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_key_canonicalization(self):
        # Tuples and lists address the same entry; order matters.
        assert stable_digest((1, 2), "a") == stable_digest([1, 2], "a")
        assert stable_digest(1, 2) != stable_digest(2, 1)
        assert stable_digest({"b": 1, "a": 2}) == stable_digest({"a": 2, "b": 1})

    def test_uncanonicalizable_key_rejected(self):
        with pytest.raises(TypeError):
            stable_digest(object())

    def test_keyer_matches_stable_digest(self, tmp_path):
        cache = ResultCache(tmp_path)
        bases = [("toy",), {"b": 1.5, "a": [b"\x00", None, True]}, [], "s"]
        units = [("chunk", 0, 32), {"z": 0.1, "y": (1, 2)}, 7, None]
        for base in bases:
            keyer = cache.keyer(base)
            for unit in units:
                assert keyer(unit) == stable_digest(base, unit)
                assert keyer(unit) == cache.key(base, unit)

    def test_torn_entry_is_a_miss(self, tmp_path):
        # A frame whose payload fails its CRC reads as a miss (an error);
        # the frames around it still hit.
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"d{i}", f"value-{i}")
        (segment,) = _segments(tmp_path)
        data = bytearray(segment.read_bytes())
        at = data.index(pickle.dumps("value-1")) + 5
        data[at] ^= 0xFF
        segment.write_bytes(bytes(data))
        reader = ResultCache(tmp_path)
        assert reader.get("d0") == "value-0"
        assert reader.get("d1") is MISS
        assert reader.get("d2") == "value-2"
        assert reader.stats.as_dict() == {
            "hits": 2, "misses": 1, "writes": 0, "errors": 1,
        }

    def test_truncated_last_frame_is_a_miss(self, tmp_path):
        # A writer killed inside its last append leaves a torn tail.
        cache = ResultCache(tmp_path)
        cache.put("d0", [0])
        cache.put("d1", [1])
        (segment,) = _segments(tmp_path)
        os.truncate(segment, segment.stat().st_size - 3)
        reader = ResultCache(tmp_path)
        assert reader.get("d0") == [0]
        assert reader.get("d1") is MISS
        assert len(reader) == 1
        reader.put("d1", [1])  # re-executed: lands in the reader's segment
        assert ResultCache(tmp_path).get("d1") == [1]
        assert len(_segments(tmp_path)) == 2

    def test_put_creates_no_file_once_segment_exists(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("first", 0)
        entries = sorted(os.listdir(tmp_path))
        assert len(entries) == 1
        for i in range(10):
            cache.put(f"d{i}", i)
            assert sorted(os.listdir(tmp_path)) == entries
        assert all(cache.get(f"d{i}") == i for i in range(10))

    def test_unwritable_directory_makes_put_a_noop(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cache = ResultCache(blocker / "cache")
        cache.put("d0", 1)
        cache.put("d1", 2)
        assert cache.stats.as_dict() == {
            "hits": 0, "misses": 0, "writes": 0, "errors": 2,
        }
        assert cache.get("d0") is MISS
        assert len(cache) == 0

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(cache.key(i), i)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0
        assert _segments(tmp_path) == []
        assert len(ResultCache(tmp_path)) == 0
        cache.put(cache.key(0), 0)  # still usable: a new segment
        assert ResultCache(tmp_path).get(cache.key(0)) == 0


def _segments(path):
    return sorted(path.glob("*.seg"))


class TestCampaignRunner:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = CampaignRunner(jobs=1, chunk_size=7).run_trials(
            _draw_chunk, 100, seed=5
        )
        parallel = CampaignRunner(jobs=4, chunk_size=7).run_trials(
            _draw_chunk, 100, seed=5
        )
        assert serial == parallel
        assert len(serial) == 100

    def test_chunk_size_does_not_change_results(self):
        a = CampaignRunner(jobs=1, chunk_size=3).run_trials(_draw_chunk, 50, seed=1)
        b = CampaignRunner(jobs=2, chunk_size=17).run_trials(_draw_chunk, 50, seed=1)
        assert a == b

    def test_nonpicklable_worker_falls_back_to_serial(self):
        runner = CampaignRunner(jobs=4)
        offsets = iter(range(1000))  # closure over a generator: not picklable
        results = runner.run_trials(
            lambda chunk: [next(offsets) * 0 + i for i in chunk.indices], 64, seed=0
        )
        assert results == list(range(64))
        assert runner.stats.fallback_reason is not None
        assert runner.stats.jobs_used == 1

    def test_cache_rerun_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = CampaignRunner(jobs=2, cache=cache)
        a = first.run_trials(_draw_chunk, 80, seed=2, key=("toy",))
        assert first.stats.executed_trials == 80
        second = CampaignRunner(jobs=2, cache=cache)
        b = second.run_trials(_draw_chunk, 80, seed=2, key=("toy",))
        assert a == b
        assert second.stats.executed_trials == 0
        assert second.stats.cached_trials == 80

    def test_cache_respects_key_and_seed(self, tmp_path):
        cache = ResultCache(tmp_path)
        CampaignRunner(cache=cache).run_trials(_draw_chunk, 32, seed=0, key=("a",))
        other_key = CampaignRunner(cache=cache)
        other_key.run_trials(_draw_chunk, 32, seed=0, key=("b",))
        assert other_key.stats.cached_trials == 0
        other_seed = CampaignRunner(cache=cache)
        other_seed.run_trials(_draw_chunk, 32, seed=1, key=("a",))
        assert other_seed.stats.cached_trials == 0

    def test_progress_and_histogram(self):
        log = ProgressLog()
        runner = CampaignRunner(
            jobs=1, chunk_size=10, progress=log,
            classify=lambda x: "hi" if x >= 0.5 else "lo",
        )
        runner.run_trials(_draw_chunk, 40, seed=0)
        assert log.last.done == 40
        assert log.last.total == 40
        assert sum(log.last.histogram.values()) == 40
        assert [e.done for e in log.events] == sorted(e.done for e in log.events)
        assert runner.stats.trials_per_sec > 0

    def test_map_preserves_order(self):
        runner = CampaignRunner(jobs=3)
        assert runner.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_map_with_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        CampaignRunner(cache=cache).map(_square, [1, 2, 3], key=("sq",))
        rerun = CampaignRunner(cache=cache)
        assert rerun.map(_square, [1, 2, 3], key=("sq",)) == [1, 4, 9]
        assert rerun.stats.units_cached == 3
        assert rerun.stats.units_executed == 0

    def test_map_item_keys_must_align(self):
        with pytest.raises(ValueError):
            CampaignRunner().map(_square, [1, 2], item_keys=[("only-one",)])

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            CampaignRunner(jobs=-2)
        assert CampaignRunner(jobs=0).jobs >= 1  # 0 = all CPUs


class TestFaultInjectionIntegration:
    """The acceptance contract: a >=500-trial campaign at jobs=4 matches
    jobs=1 bit-for-bit, and a cached re-run executes zero trials."""

    @pytest.fixture(scope="class")
    def injector(self):
        from repro.arch import FaultInjector
        from repro.arch import programs as P

        return FaultInjector(P.fibonacci(8))

    def test_parallel_campaign_identical_to_serial(self, injector):
        serial = injector.run_campaign(n_trials=500, seed=3, jobs=1)
        parallel = injector.run_campaign(n_trials=500, seed=3, jobs=4)
        assert serial.counts() == parallel.counts()
        assert serial.records == parallel.records

    def test_cached_rerun_executes_zero_trials(self, injector, tmp_path):
        cache = ResultCache(tmp_path)
        first = injector.run_campaign(n_trials=500, seed=3, jobs=4, cache=cache)
        assert injector.last_run_stats.executed_trials == 500
        again = injector.run_campaign(n_trials=500, seed=3, jobs=4, cache=cache)
        assert injector.last_run_stats.executed_trials == 0
        assert injector.last_run_stats.cached_trials == 500
        assert again.records == first.records

    def test_fingerprint_invalidates_across_programs(self, injector, tmp_path):
        from repro.arch import FaultInjector
        from repro.arch import programs as P

        cache = ResultCache(tmp_path)
        injector.run_campaign(n_trials=64, seed=0, cache=cache)
        other = FaultInjector(P.checksum(8))
        other.run_campaign(n_trials=64, seed=0, cache=cache)
        assert other.last_run_stats.cached_trials == 0

    def test_element_campaign_parallel_matches_serial(self, injector):
        serial = injector.exhaustive_element_campaign("reg3", n_trials=96, seed=1)
        parallel = injector.exhaustive_element_campaign(
            "reg3", n_trials=96, seed=1, jobs=2
        )
        assert serial.records == parallel.records

    def test_campaign_progress_histogram_matches_counts(self, injector):
        log = ProgressLog()
        campaign = injector.run_campaign(n_trials=128, seed=0, progress=log)
        assert log.last.done == 128
        assert log.last.histogram == {
            o.value: c for o, c in campaign.counts().items() if c
        }


class TestMonteCarloIntegration:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.core import MonteCarloStudy, adpcm_like_workload

        wl = adpcm_like_workload(n_segments=8, seed=0)
        return MonteCarloStudy(wl, n_runs=20, seed=0)

    PROBS = [1e-7, 1e-6, 1e-5]

    def test_parallel_sweep_identical_to_serial(self, study):
        serial = study.sweep(self.PROBS)
        parallel = study.sweep(self.PROBS, jobs=3)
        for a, b in zip(serial, parallel):
            assert a.error_probability == b.error_probability
            assert a.mean_rollbacks_per_segment == b.mean_rollbacks_per_segment
            assert a.hit_rate == b.hit_rate
            assert a.mean_energy == b.mean_energy

    def test_cached_sweep_reruns_nothing(self, study, tmp_path):
        cache = ResultCache(tmp_path)
        study.sweep(self.PROBS, jobs=2, cache=cache)
        assert study.last_sweep_stats.units_executed == len(self.PROBS)
        study.sweep(self.PROBS, cache=cache)
        assert study.last_sweep_stats.units_executed == 0
        assert study.last_sweep_stats.units_cached == len(self.PROBS)

    def test_new_levels_only_execute_new_points(self, study, tmp_path):
        cache = ResultCache(tmp_path)
        study.sweep([1e-7, 1e-6], cache=cache)
        study.sweep([1e-7, 1e-6, 1e-5], cache=cache)
        assert study.last_sweep_stats.units_cached == 2
        assert study.last_sweep_stats.units_executed == 1

    def test_stateful_policies_run_serial_uncached(self, tmp_path):
        from repro.core import (
            ALL_POLICIES,
            AdaptiveBudgetPolicy,
            MonteCarloStudy,
            adpcm_like_workload,
        )

        wl = adpcm_like_workload(n_segments=6, seed=0)
        study = MonteCarloStudy(
            wl, policies=ALL_POLICIES + (AdaptiveBudgetPolicy(),), n_runs=5, seed=0
        )
        cache = ResultCache(tmp_path)
        points = study.sweep([1e-6, 1e-5], jobs=4, cache=cache)
        assert len(points) == 2
        assert "Learned" in points[0].hit_rate
        assert study.last_sweep_stats.jobs_used == 1  # forced serial
        assert len(cache) == 0  # and uncached
