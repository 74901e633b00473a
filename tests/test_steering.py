"""Steered adaptive campaigns (docs/steering.md).

Covers the scheduler's adaptive seams (``on_result`` / ``available`` /
``exhausted``), the static unit layout of :class:`SteeredUnitSource`,
and the campaign-level contracts: early stop saves trials, the steered
estimate agrees with the uniform baseline, and the executed record
stream is byte-identical across jobs, caching, and resume.
"""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.arch import (
    FaultInjector,
    Outcome,
    SteeredUnitSource,
    SteeringConfig,
)
from repro.arch import programs as P
from repro.runtime import CampaignRunner, ChunkSource, ResultCache
from repro.runtime.stats import stratified_estimate, wilson_halfwidth


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
def tight(injector):
    # At the default ±0.02 checksum stops at its first check; ±0.01 runs
    # two rounds longer, so steered allocation shapes the stop point.
    return injector.run_steered_campaign(
        budget=2048, seed=3, config=SteeringConfig(target_ci=0.01)
    )


@pytest.fixture(scope="module")
def uniform(injector):
    return injector.run_steered_campaign(
        budget=2048, seed=3, config=SteeringConfig(mode="uniform")
    )


#: ``(records digest, avf_estimate, ci_halfwidth)`` of
#: ``run_steered_campaign(budget=8192, seed=s)`` per ``"program/seed"``,
#: captured from the generator that still offered a GBDT surrogate, run
#: with its empirical allocation (``surrogate="none"``).  The default
#: config must reproduce them bit for bit.
EMPIRICAL_CAMPAIGNS = {
    "vector_add/1": (
        "5a3c7056de727b7eae05199b5f13a841d577a3f63c33cd8212dcdb6d09e1635e",
        0.2160018700966976, 0.01618236642356923,
    ),
    "vector_add/2": (
        "4d080e322cfc352923b61bd3aec39107203aff7f1083f96adbbf2220e3d836db",
        0.21900276713495104, 0.016259111418553785,
    ),
    "vector_add/3": (
        "bfc1f7feaeab34b9e53bb346f25974b71fbec1a4d2a7d6ab3fa9ea97dd5e762d",
        0.21888303533418474, 0.015924633344028827,
    ),
    "dot_product/1": (
        "e5765bbc1bcb1178ffc1bccbb8bad8508906dc2afca6d58d9914d66d1f18a073",
        0.2682136131288674, 0.01893693646361491,
    ),
    "dot_product/2": (
        "b58a0351b8c018db96352116090d0b455d10a5865fd097b432755903e1ed3048",
        0.28474352076046994, 0.017184137186177697,
    ),
    "dot_product/3": (
        "be844c01a48e6a05dbac85e12941385a2c663f1962d19f416a825d6921f82a2a",
        0.2643933279526501, 0.01884988101489657,
    ),
    "matmul/1": (
        "72d0c84ab9b2ff62ddcd63f5d2df4e36eba7a42164629f59d39401a565c0e669",
        0.382227023033598, 0.015498320233427043,
    ),
    "matmul/2": (
        "1c83990e111ad9c483d1310bb6ee4ac337308da2a46b07c0a288dd7082128bd3",
        0.3875855816796183, 0.015735828485410358,
    ),
    "matmul/3": (
        "daa3b9dc8289da96972703225f28d614bee770b7fdbcf098d550082d94570584",
        0.38394434736177857, 0.015138127982774438,
    ),
    "bubble_sort/1": (
        "69f2c5cdace3aa73626d5ec4835bfe8709175548da57d38ee80e6b4306033543",
        0.3010791544773785, 0.014788712755057373,
    ),
    "bubble_sort/2": (
        "b57ff1a66ce8b66a27996f1a6523eb1ac36648cf137e2eb7e5cc5145a81e5afd",
        0.2933051661706032, 0.014594336483357284,
    ),
    "bubble_sort/3": (
        "4480af53902f6b37aca593c281b6b61bdfa79c168aed532e82634b4a3a42ba71",
        0.2949801170714194, 0.01400857881356105,
    ),
    "fibonacci/1": (
        "9debd9c223d9ce7d675d9348337e1a48833c3b964cd233b49d834cdefbef48af",
        0.2971805138471804, 0.018631463027811497,
    ),
    "fibonacci/2": (
        "a688dcff47d0a98aa5dd4482d051fcb141f99e91948431b622289682696be424",
        0.28004671338004666, 0.019248744076001464,
    ),
    "fibonacci/3": (
        "482dc92e71e972f08ba682846e3f1d29d35db347b88aaf052d4a12f1544fc2c2",
        0.2885135135135134, 0.01884456091264797,
    ),
    "checksum/1": (
        "7e4e54b371f473613eaba5f4d5f5cb65e920fc50fde0e51a1fb0608d529a8c92",
        0.245527840765936, 0.01717798039182239,
    ),
    "checksum/2": (
        "762e47e2d9e03955db624feec17b53597a10bcd2925c707a07a7a9fa4e6f972d",
        0.26147434282354914, 0.016029570688330032,
    ),
    "checksum/3": (
        "07a9cfa2bbca5c5f41296d376f47e6275b606e9a7a5ae52381a525521720960e",
        0.25107079868984633, 0.01634689873269463,
    ),
    "fir_filter/1": (
        "b9ed73c093c319cab1f967c4675b1a9600828a2d8970a2b72720eddde55e23a3",
        0.37455270735585117, 0.015420930748612973,
    ),
    "fir_filter/2": (
        "2878fcf8f7b875dab4bee610953cd2b15c109a4bbe77db61d3776114fb322207",
        0.37053258802260813, 0.016692348045485167,
    ),
    "fir_filter/3": (
        "9ad3dec32e517f9530e6a561c227539e5363d6758b013751cc92097d28bfaa24",
        0.3711826079590552, 0.01591765749512962,
    ),
    "binary_search/1": (
        "13ee2b035868124e1e4889c9366ad83725e613e05bed35bdfb3f3ea738c38bd0",
        0.1823979591836734, 0.015389416096637677,
    ),
    "binary_search/2": (
        "2371e64abda1e79b71c9df0ff2f6bb1c9f90fc8297682a79a4d0a1b86fdef735",
        0.19545225497606447, 0.014838592341722974,
    ),
    "binary_search/3": (
        "cc81664803653a50dc5d99baaf6d513c485f6fa21277f23cb69f3fdfbb4a8be9",
        0.1928162005542958, 0.014520553678689832,
    ),
}


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
    CFG = dict(round_trials=128, chunk_size=32)

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

    def test_config_validation(self):
        for bad in (
            dict(target_ci=0.0), dict(target_ci=0.6),
            dict(confidence=1.0), dict(round_trials=0),
            dict(chunk_size=0), dict(phase_bins=0),
            dict(explore=1.5), dict(mode="greedy"),
        ):
            with pytest.raises(ValueError):
                SteeringConfig(**bad).validate()

    def test_tallies_land_in_generating_stratum_when_bins_uneven(self):
        # Regression: golden_cycles=10, phase_bins=4 gives the floor
        # partition [0, 2, 5, 7, 10].  A ``cycle * bins // golden_cycles``
        # inversion disagreed with it (cycles 2 and 7 tallied into strata
        # 0/2 instead of 1/3), biasing the post-stratified estimate and
        # crashing the round-0 seal.  Every committed trial must count in
        # the stratum whose element and phase bounds hold its coordinate.
        for mode in ("steered", "uniform"):
            cfg = SteeringConfig(mode=mode, round_trials=16,
                                 chunk_size=8, early_stop=False)
            source = SteeredUnitSource(
                seed=5, budget=40, elements=["a", "b"], golden_cycles=10,
                config=cfg,
            )
            assert source._phase_bounds == [0, 2, 5, 7, 10]
            coords = []
            i = 0
            while i < source.available():  # sealing a round adds the next
                chunk = source.item(i).coords
                i += 1
                coords += chunk
                source.on_result(i - 1, [
                    SimpleNamespace(
                        cycle=c, element=e,
                        outcome=Outcome.SDC if c % 2 else Outcome.MASKED,
                    )
                    for c, e, _ in chunk
                ])
            bounds = source._phase_bounds
            expect_n = [0] * len(source._strata)
            expect_f = [0] * len(source._strata)
            for c, element, _ in coords:
                e = source.elements.index(element)
                hits = [k for k, (se, b) in enumerate(source._strata)
                        if se == e and bounds[b] <= c < bounds[b + 1]]
                assert len(hits) == 1
                expect_n[hits[0]] += 1
                expect_f[hits[0]] += c % 2
            assert source._n_s == expect_n, mode
            assert source._f_s == expect_f, mode
            assert sum(expect_n) == len(coords) == 40
            assert {2, 7} <= {c for c, _, _ in coords}  # the uneven edges

    def test_seal_survives_uneven_bins(self):
        # End-to-end shape of the crash in the regression above: commit
        # a full bootstrap round and seal it.  With mis-tallied strata
        # the stratified estimator raised "every stratum with positive
        # weight needs >= 1 observation".
        cfg = SteeringConfig(round_trials=16,
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
        # Round 0 is half of round_trials, and at least one trial per
        # stratum: 8 either way here.
        assert source.trajectory and source.trajectory[0]["trials"] == 8
        assert sum(source._n_s) == 8
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
        assert source.trajectory and source.trajectory[0]["trials"] == 64
        # All-masked tallies: estimate 0, new round generated.
        assert source.trajectory[0]["estimate"] == 0.0
        assert source.available() > first_round_units

    def test_bootstrap_round_never_stops_a_steered_campaign(self):
        # An all-masked bootstrap round already meets any target; the
        # first stop check still waits for round 1, the first steered one.
        source = self._source(budget=512, target_ci=0.1)
        assert [source.weight(i) for i in range(source.available())] == [32, 32]
        for _ in range(2):
            for i in range(source._next_commit, source.available()):
                records = [
                    SimpleNamespace(cycle=c, element=e, outcome=Outcome.MASKED)
                    for c, e, _ in source.item(i).coords
                ]
                source.on_result(i, records)
        assert [t["trials"] for t in source.trajectory] == [64, 128]
        assert source.trajectory[0]["halfwidth"] <= 0.1
        assert source.stop_reason == "target" and source.exhausted


class TestEmpiricalAllocation:
    def test_default_config_reproduces_empirical_campaigns(self):
        got = {}
        for program in P.all_programs():
            inj = FaultInjector(program)
            for seed in (1, 2, 3):
                result = inj.run_steered_campaign(budget=8192, seed=seed)
                s = result.steering
                got[f"{program.name}/{seed}"] = (
                    _digest(result), s["avf_estimate"], s["ci_halfwidth"],
                )
                assert s["refits"] == 0 and "surrogate" not in s
        assert got == EMPIRICAL_CAMPAIGNS

    @pytest.mark.parametrize(
        "removed", [dict(surrogate="gbdt"), dict(prior_strength=4.0)])
    def test_surrogate_fields_are_gone(self, removed):
        with pytest.raises(TypeError):
            SteeringConfig(**removed)

    def test_unknown_element_is_rejected(self, injector):
        with pytest.raises(ValueError, match="unknown element 'reg99'"):
            injector.run_steered_campaign(budget=256, elements=["reg99"])


class TestConfigMatrix:
    """Every steering mode x early-stop choice, inline and over tcp."""

    @pytest.mark.parametrize("early_stop", [True, False])
    @pytest.mark.parametrize("mode", ["steered", "uniform"])
    def test_inline_and_tcp_are_byte_identical(self, injector, mode,
                                               early_stop):
        config = SteeringConfig(mode=mode, early_stop=early_stop,
                                target_ci=0.05)
        runs = {}
        for transport, jobs, options in (("inline", 1, None),
                                         ("tcp", 2, {"workers": 2})):
            runs[transport] = injector.run_steered_campaign(
                budget=512, seed=11, config=config, jobs=jobs,
                transport=transport, transport_options=options,
            )
            assert injector.last_run_stats.transport == transport
        inline, tcp = runs["inline"], runs["tcp"]
        assert _digest(tcp) == _digest(inline)
        assert (json.dumps(tcp.steering, sort_keys=True)
                == json.dumps(inline.steering, sort_keys=True))
        s = inline.steering
        assert s["mode"] == mode and len(inline.records) == s["trials_executed"]
        if early_stop:
            assert s["stop_reason"] == "target" and s["trials_saved"] > 0
        else:
            assert s["stop_reason"] == "budget" and s["trials_executed"] == 512


class TestLiveStrata:
    """Steering samples only live coordinates; dead mass is an exact 0."""

    def _source(self, **overrides):
        cfg = SteeringConfig(round_trials=64, chunk_size=16, early_stop=False)
        return SteeredUnitSource(
            seed=2, budget=256, elements=["reg1", "reg2", "pc"],
            golden_cycles=40, config=cfg,
            live_cycles=[np.arange(0, 40, 3), np.array([5, 6, 7]), None],
            **overrides,
        )

    def test_draws_only_live_cycles_and_drops_dead_strata(self):
        source = self._source()
        pools = {"reg1": set(range(0, 40, 3)), "reg2": {5, 6, 7},
                 "pc": set(range(40))}
        for i in range(source.available()):
            for cycle, element, _ in source.item(i).coords:
                assert cycle in pools[element]
        # reg2's live cycles all sit in phase 0; its other phases go.
        assert [s for s in source._strata if s[0] == 1] == [(1, 0)]
        assert source.live_mass == pytest.approx((14 + 3 + 40) / 120)

    def test_halfwidth_is_jeffreys_on_live_weights_scaled(self):
        source = self._source()
        for i in range(source.available()):
            records = [
                SimpleNamespace(
                    cycle=c, element=e,
                    outcome=Outcome.SDC if (c + b) % 3 == 0 else Outcome.MASKED,
                )
                for c, e, b in source.item(i).coords
            ]
            source.on_result(i, records)
        estimate, halfwidth = source.estimate()
        live = source.live_mass
        counts = [int(n) for n in source._n_s]
        fails = [int(f) for f in source._f_s]
        sizes = [4, 3, 3, 4, 3, 10, 10, 10, 10]  # live cycles per stratum
        weights = [n / sum(sizes) for n in sizes]
        exp_est, exp_hw = stratified_estimate(weights, fails, counts)
        assert estimate == pytest.approx(live * exp_est, rel=1e-12)
        assert halfwidth == pytest.approx(live * exp_hw, rel=1e-12)
        assert source.summary()["live_mass"] == live

    def test_all_dead_elements_are_exactly_zero_without_trials(self, injector):
        result = injector.run_steered_campaign(budget=512, elements=["reg0"])
        s = result.steering
        assert result.records == []
        assert (s["avf_estimate"], s["ci_halfwidth"]) == (0.0, 0.0)
        assert s["trials_executed"] == 0 and s["trials_saved"] == 512
        assert s["stop_reason"] == "exact" and s["stopped_early"]
        assert s["live_mass"] == 0.0 and s["strata"] == 0
        assert s["rounds"] == 0 and s["trajectory"] == []

    def test_uniform_mode_ignores_liveness(self):
        cfg = SteeringConfig(mode="uniform", round_trials=64, chunk_size=16)
        source = SteeredUnitSource(
            seed=2, budget=256, elements=["reg1"], golden_cycles=40,
            config=cfg, live_cycles=[np.array([5])],
        )
        assert source.live_mass == 1.0
        cycles = {c for i in range(source.available())
                  for c, _, _ in source.item(i).coords}
        assert len(cycles) > 1


class TestSteeredCampaign:
    def test_early_stop_saves_trials(self, steered):
        s = steered.steering
        assert s["stopped_early"] and s["stop_reason"] == "target"
        assert s["trials_executed"] < 2048
        assert s["trials_saved"] == 2048 - s["trials_executed"]
        assert len(steered.records) == s["trials_executed"]
        assert s["ci_halfwidth"] <= s["target_ci"]

    def test_trajectory_tightens_to_target(self, tight):
        s = tight.steering
        trials = [t["trials"] for t in s["trajectory"]]
        assert trials == sorted(trials) and len(set(trials)) == len(trials)
        assert s["trajectory"][-1]["halfwidth"] <= s["target_ci"]
        assert len(s["trajectory"]) == s["rounds"]

    def test_steering_outcome_is_pinned(self, tight):
        # Captured with live-cycle strata, the Jeffreys stopping width,
        # the split bootstrap round and empirical allocation, on the
        # ±0.01 run so that three steered rounds shape the estimate.  The
        # float tolerance admits only last-bit differences between numpy
        # builds; a different allocation or live pool moves the estimate
        # far more.
        s = tight.steering
        assert (s["trials_executed"], s["rounds"], s["refits"]) == (384, 4, 0)
        assert s["avf_estimate"] == pytest.approx(0.2501385982012605, rel=1e-12)
        assert s["ci_halfwidth"] == pytest.approx(0.007596803999795057, rel=1e-12)

    def test_matmul_trials_to_target_are_pinned(self):
        # Steered vs uniform sequential campaign on matmul(5) to the same
        # ±0.02 half-width.  The run is deterministic, so the executed
        # trial counts are pinned exactly (a 9x saving); both must stop
        # on the target, and the steered estimate must land inside the
        # uniform run's Wilson reference interval.
        injector = FaultInjector(P.matmul(5), max_cycles_factor=1.5)
        runs = {
            mode: injector.run_steered_campaign(
                budget=8192, seed=2,
                config=SteeringConfig(mode=mode, target_ci=0.02),
            )
            for mode in ("steered", "uniform")
        }
        steered, uniform = runs["steered"], runs["uniform"]
        assert steered.steering["stop_reason"] == "target"
        assert uniform.steering["stop_reason"] == "target"
        lo, hi = uniform.uniform_interval()
        assert lo <= steered.steering["avf_estimate"] <= hi
        assert steered.steering["trials_executed"] == 256
        assert uniform.steering["trials_executed"] == 2304

    def test_chunk_size_does_not_change_the_campaign(self, injector, tight):
        # Rounds and stop checks happen at round boundaries only,
        # so the scheduler's unit size leaves every coordinate alone.
        other = injector.run_steered_campaign(
            budget=2048, seed=3,
            config=SteeringConfig(target_ci=0.01, chunk_size=64),
        )
        assert _digest(other) == _digest(tight)
        assert other.steering["trajectory"] == tight.steering["trajectory"]

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
        config = SteeringConfig(early_stop=False)

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
