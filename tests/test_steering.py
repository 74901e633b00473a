"""Surrogate-steered adaptive campaigns (docs/steering.md).

Covers the scheduler's adaptive seams (``on_result`` / ``available`` /
``exhausted``), the static unit layout of :class:`SteeredUnitSource`,
and the campaign-level contracts: early stop saves trials, the steered
estimate agrees with the uniform baseline, and the executed record
stream is byte-identical across jobs, caching, and resume.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.arch import (
    FaultInjector,
    Outcome,
    SteeredUnitSource,
    SteeringConfig,
)
from repro.arch import programs as P
from repro.runtime import CampaignRunner, ChunkSource, ResultCache
from repro.runtime.stats import wilson_halfwidth


def _digest(result):
    payload = json.dumps(
        [
            (r.program, r.cycle, r.element, r.bit, r.outcome.value,
             r.pc_at_injection, r.opcode_at_injection)
            for r in result.records
        ],
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(payload).hexdigest()


def _failures(records):
    bad = (Outcome.SDC, Outcome.CRASH, Outcome.HANG)
    return sum(r.outcome in bad for r in records)


@pytest.fixture(scope="module")
def injector():
    return FaultInjector(P.checksum(12))


@pytest.fixture(scope="module")
def steered(injector):
    return injector.run_steered_campaign(budget=2048, seed=3)


@pytest.fixture(scope="module")
def uniform(injector):
    return injector.run_steered_campaign(
        budget=2048, seed=3, config=SteeringConfig(mode="uniform")
    )


def _double_chunk(chunk):
    return [2 * t for t in range(chunk.start, chunk.stop)]


class _RecordingSource(ChunkSource):
    """Static chunk source plus an on_result recorder."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def on_result(self, i, results):
        self.calls.append((i, tuple(results)))


class TestSchedulerSeams:
    def test_on_result_fires_once_per_unit_in_commit_order(self):
        source = _RecordingSource(0, 40, 8)
        out = CampaignRunner(jobs=1).run_units(_double_chunk, source)
        assert [i for i, _ in source.calls] == list(range(5))
        assert [list(r) for _, r in source.calls] == out

    def test_on_result_replays_identically_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = _RecordingSource(0, 40, 8)
        CampaignRunner(jobs=1, cache=cache).run_units(_double_chunk, first)
        replay = _RecordingSource(0, 40, 8)
        runner = CampaignRunner(jobs=1, cache=cache)
        runner.run_units(_double_chunk, replay)
        assert runner.stats.units_cached == 5
        assert replay.calls == first.calls

    def test_static_sources_run_unchanged(self):
        # A plain source has no adaptive hooks; the seams must not
        # change its behaviour or its results.
        source = ChunkSource(0, 40, 8)
        out = CampaignRunner(jobs=1).run_units(_double_chunk, source)
        assert out == [[2 * t for t in range(s, min(s + 8, 40))]
                       for s in range(0, 40, 8)]

    def test_available_gates_admission(self):
        class Gated(_RecordingSource):
            def available(self):
                # Unit 1 exists only after unit 0 commits.
                return len(self) if self.calls else 1

        source = Gated(0, 24, 8)
        out = CampaignRunner(jobs=1).run_units(_double_chunk, source)
        assert len(out) == 3 and all(o is not None for o in out)

    def test_exhausted_stops_admission_early(self):
        # ``exhausted`` ends the campaign once nothing new may be
        # admitted; it pairs with ``available`` (alone it cannot recall
        # units the window already admitted).
        class Stopping(_RecordingSource):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.generated = 1

            def available(self):
                return self.generated

            def on_result(self, i, results):
                super().on_result(i, results)
                if not self.exhausted:
                    self.generated = min(self.generated + 1, len(self))

            @property
            def exhausted(self):
                return len(self.calls) >= 2

        source = Stopping(0, 40, 8)
        out = CampaignRunner(jobs=1).run_units(_double_chunk, source)
        # Units past the stop point are never admitted -> None.
        assert len(source.calls) == 2
        assert out[2:] == [None, None, None]

    def test_stalled_source_raises(self):
        class Stalled(ChunkSource):
            def available(self):
                return 1

            exhausted = False

        with pytest.raises(RuntimeError, match="stalled"):
            CampaignRunner(jobs=1).run_units(_double_chunk, Stalled(0, 24, 8))


class TestSteeredUnitSource:
    CFG = dict(surrogate="none", round_trials=128, chunk_size=32)

    def _source(self, seed=0, budget=320, **overrides):
        cfg = SteeringConfig(**{**self.CFG, **overrides})
        return SteeredUnitSource(
            seed=seed, budget=budget, elements=["a", "b"],
            golden_cycles=100, config=cfg,
        )

    def test_layout_is_static_and_covers_budget(self):
        source = self._source()
        assert sum(source.weight(i) for i in range(len(source))) == 320
        assert source.total_weight == 320
        keys = [source.key(i) for i in range(len(source))]
        assert len(set(keys)) == len(keys)
        # Layout is a pure function of the config, not of any outcome.
        assert keys == [self._source().key(i) for i in range(len(source))]

    def test_round_zero_generation_is_seed_deterministic(self):
        a, b = self._source(seed=5), self._source(seed=5)
        assert [a.item(i).coords for i in range(a.available())] == \
               [b.item(i).coords for i in range(b.available())]
        other = self._source(seed=6)
        assert a.item(0).coords != other.item(0).coords

    def test_coords_stay_in_bounds(self):
        source = self._source()
        for i in range(source.available()):
            for cycle, element, bit in source.item(i).coords:
                assert 0 <= cycle < 100
                assert element in ("a", "b")

    def test_budget_must_cover_bootstrap_round(self):
        with pytest.raises(ValueError, match="bootstrap"):
            self._source(budget=4)

    def test_steered_surrogate_requires_features(self):
        with pytest.raises(ValueError, match="feature"):
            SteeredUnitSource(
                seed=0, budget=320, elements=["a"], golden_cycles=10,
                config=SteeringConfig(),
            )

    def test_config_validation(self):
        for bad in (
            dict(target_ci=0.0), dict(target_ci=0.6),
            dict(confidence=1.0), dict(round_trials=0),
            dict(chunk_size=0), dict(phase_bins=0),
            dict(explore=1.5), dict(surrogate="mlp"),
            dict(refit_chunks=0), dict(prior_strength=-1),
            dict(mode="greedy"),
        ):
            with pytest.raises(ValueError):
                SteeringConfig(**bad).validate()

    def test_locate_inverts_generation_bounds_when_bins_uneven(self):
        # Regression: golden_cycles=10, phase_bins=4 gives the floor
        # partition [0, 2, 5, 7, 10].  The old ``cycle * bins //
        # golden_cycles`` locate disagreed with it (cycles 2 and 7
        # tallied into strata 0/2 instead of 1/3), biasing the
        # post-stratified estimate and crashing the round-0 seal.
        cfg = SteeringConfig(surrogate="none", round_trials=16,
                             chunk_size=8, early_stop=False)
        source = SteeredUnitSource(
            seed=5, budget=40, elements=["a", "b"], golden_cycles=10,
            config=cfg,
        )
        assert source._phase_bounds == [0, 2, 5, 7, 10]
        for cycle in range(10):
            for e, element in enumerate(source.elements):
                s = source._locate(cycle, element)
                se, b = source._strata[s]
                assert se == e
                lo, hi = source._phase_bounds[b], source._phase_bounds[b + 1]
                assert lo <= cycle < hi

    def test_seal_survives_uneven_bins(self):
        # End-to-end shape of the crash in the regression above: commit
        # a full bootstrap round and seal it.  With mis-tallied strata
        # the stratified estimator raised "every stratum with positive
        # weight needs >= 1 observation".
        cfg = SteeringConfig(surrogate="none", round_trials=16,
                             chunk_size=8, early_stop=False)
        source = SteeredUnitSource(
            seed=5, budget=40, elements=["a", "b"], golden_cycles=10,
            config=cfg,
        )
        first_round_units = source.available()
        for i in range(first_round_units):
            records = [
                SimpleNamespace(cycle=c, element=e, outcome=Outcome.MASKED)
                for c, e, _ in source.item(i).coords
            ]
            source.on_result(i, records)
        assert source.trajectory and source.trajectory[0]["trials"] == 16
        assert sum(source._n_s) == 16
        # Every stratum got its round-0 minimum of one trial, tallied
        # into the stratum it was generated for.
        assert all(n >= 1 for n in source._n_s)

    def test_on_result_seals_rounds_and_tallies(self):
        # early_stop off: an all-masked round would otherwise satisfy
        # the CI target immediately and never generate round 1.
        source = self._source(budget=256, early_stop=False)
        first_round_units = source.available()
        for i in range(first_round_units):
            records = [
                SimpleNamespace(cycle=c, element=e, outcome=Outcome.MASKED)
                for c, e, _ in source.item(i).coords
            ]
            source.on_result(i, records)
        assert source.trajectory and source.trajectory[0]["trials"] == 128
        # All-masked tallies: estimate 0, new round generated.
        assert source.trajectory[0]["estimate"] == 0.0
        assert source.available() > first_round_units


class TestSteeredCampaign:
    def test_early_stop_saves_trials(self, steered):
        s = steered.steering
        assert s["stopped_early"] and s["stop_reason"] == "target"
        assert s["trials_executed"] < 2048
        assert s["trials_saved"] == 2048 - s["trials_executed"]
        assert len(steered.records) == s["trials_executed"]
        assert s["ci_halfwidth"] <= s["target_ci"]

    def test_trajectory_tightens_to_target(self, steered):
        s = steered.steering
        trials = [t["trials"] for t in s["trajectory"]]
        assert trials == sorted(trials) and len(set(trials)) == len(trials)
        assert s["trajectory"][-1]["halfwidth"] <= s["target_ci"]
        assert len(s["trajectory"]) == s["rounds"]
        assert s["refits"] >= 1

    def test_steering_outcome_is_pinned(self, steered):
        # Captured with the masked per-threshold CART split search.  The
        # prefix-sum search must grow the same surrogate trees, so the
        # allocation, the stop and the estimate are unchanged.  The float
        # tolerance admits only last-bit differences between numpy builds
        # (SIMD exp/log); a different tree or allocation moves the
        # estimate far more.
        s = steered.steering
        assert (s["trials_executed"], s["refits"]) == (512, 3)
        assert s["avf_estimate"] == pytest.approx(0.2589319117096894, rel=1e-12)
        assert s["ci_halfwidth"] == pytest.approx(0.019331144641678354, rel=1e-12)

    def test_knn_surrogate_refits_and_stops_on_target(self, injector):
        result = injector.run_steered_campaign(
            budget=2048, seed=3, config=SteeringConfig(surrogate="knn")
        )
        s = result.steering
        assert s["surrogate"] == "knn"
        assert s["stop_reason"] == "target" and s["refits"] >= 1

    def test_steered_agrees_with_uniform_baseline(self, steered, uniform):
        # Two 95% CIs for the same AVF: their centres must lie within
        # the sum of the half-widths (the intervals overlap).
        delta = abs(
            steered.steering["avf_estimate"] - uniform.steering["avf_estimate"]
        )
        assert delta <= (steered.steering["ci_halfwidth"]
                         + uniform.steering["ci_halfwidth"])

    def test_uniform_mode_reports_wilson(self, uniform):
        s = uniform.steering
        n = s["trials_executed"]
        failures = _failures(uniform.records)
        assert s["avf_estimate"] == pytest.approx(failures / n)
        assert s["ci_halfwidth"] == pytest.approx(
            wilson_halfwidth(failures, n, s["confidence"])
        )
        lo, hi = uniform.uniform_interval()
        assert lo <= s["avf_estimate"] <= hi

    def test_no_early_stop_exhausts_budget(self, injector):
        result = injector.run_steered_campaign(
            budget=256, seed=3, config=SteeringConfig(early_stop=False)
        )
        s = result.steering
        assert s["trials_executed"] == 256 and s["trials_saved"] == 0
        assert s["stop_reason"] == "budget" and not s["stopped_early"]

    def test_byte_identical_across_jobs_cache_and_resume(self, injector,
                                                         tmp_path):
        config = SteeringConfig(target_ci=0.05)

        def run(**kwargs):
            return injector.run_steered_campaign(
                budget=512, seed=7, config=config, **kwargs
            )

        inline = run(jobs=1)
        pooled = run(jobs=2)
        cache = ResultCache(tmp_path / "cache")
        cached = run(jobs=1, cache=cache)
        resumed = run(jobs=1, cache=cache, resume=True)
        stats = injector.last_run_stats

        reference = _digest(inline)
        for other in (pooled, cached, resumed):
            assert _digest(other) == reference
            assert other.steering == inline.steering
        assert stats.journaled_units > 0
        assert stats.executed_trials == 0  # resume replays, never re-runs

    def test_cache_is_budget_scoped(self, injector, tmp_path):
        # Regression: the run-level cache key omitted the budget, but
        # round layout depends on it, so budget=300 and budget=450 both
        # produced unit key ("steer", seed, 2, 0, 32) for chunks with
        # *different* coordinates — a shared cache dir silently replayed
        # records for the wrong coordinates.
        cache = ResultCache(tmp_path / "cache")
        config = SteeringConfig(surrogate="none", early_stop=False)

        def run(budget, **kwargs):
            return injector.run_steered_campaign(
                budget=budget, seed=7, config=config, **kwargs
            )

        run(300, cache=cache)
        shared = run(450, cache=cache)
        fresh = run(450)
        assert _digest(shared) == _digest(fresh)
        assert shared.steering == fresh.steering

    def test_different_seeds_differ(self, injector, steered):
        other = injector.run_steered_campaign(budget=2048, seed=4)
        assert _digest(other) != _digest(steered)
