"""FI engine equivalence: batched vs the reference oracle.

The reference engine re-executes every trial from cycle 0 and is kept
as the oracle; the batched engine runs whole chunks of trials in
lockstep down the golden trace as numpy lanes, retires a lane when it
halts in lockstep or crashes, and falls out to the block-compiled
interpreter on divergence.  Every test here pins the
contract that both engines produce bit-identical
:class:`InjectionRecord`\\ s — outcomes, injection context, everything.
Single-coordinate :meth:`FaultInjector.inject_many` calls force
one-lane sweeps, so the per-trial tests exercise every lane in
isolation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch import FaultInjector, Outcome
from repro.arch import programs as P
from repro.arch.cpu import CPU

ELEMENTS = [f"reg{i}" for i in range(16)] + ["pc", "ir"]


def _pair(program, **kwargs):
    """(reference, batched) injectors with identical configuration."""
    return (
        FaultInjector(program, engine="reference", **kwargs),
        FaultInjector(program, engine="batched", **kwargs),
    )


def _one(injector, cycle, element, bit):
    """One trial as a single-coordinate (one-lane) sweep."""
    (record,) = injector.inject_many([(cycle, element, bit)])
    return record


@pytest.fixture(scope="module")
def checksum_pair():
    return _pair(P.checksum(24))


class TestEngineSelection:
    def test_default_engine_is_batched(self):
        assert FaultInjector(P.fibonacci(8)).engine == "batched"

    def test_unknown_engine_rejected(self):
        for engine in ("turbo", "auto"):
            with pytest.raises(ValueError, match="engine"):
                FaultInjector(P.fibonacci(8), engine=engine)

    def test_engine_namespaces_the_cache_fingerprint(self):
        ref, batched = _pair(P.fibonacci(8))
        assert ref.fingerprint()["engine"] == "reference"
        assert batched.fingerprint()["engine"] == "batched"
        stripped = []
        for inj in (ref, batched):
            fp = dict(inj.fingerprint())
            del fp["engine"]
            stripped.append(fp)
        assert stripped[0] == stripped[1]


class TestCampaignEquivalence:
    @pytest.mark.parametrize("program", P.all_programs(), ids=lambda p: p.name)
    def test_bit_identical_records_all_seed_programs(self, program):
        ref, batched = _pair(program)
        r = ref.run_campaign(n_trials=60, seed=7)
        b = batched.run_campaign(n_trials=60, seed=7)
        assert r.records == b.records
        assert r.golden_output == b.golden_output
        assert r.golden_cycles == b.golden_cycles

    @pytest.mark.parametrize("transport,jobs", [("inline", 1), ("tcp", 2)],
                             ids=["inline", "tcp"])
    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_identical_under_jobs_and_cache(self, tmp_path, engine,
                                            transport, jobs):
        # Every engine x transport cell matches the serial uncached
        # oracle run, so all four record lists are equal.
        from repro.runtime import ResultCache

        program = P.checksum(16)
        serial = FaultInjector(program, engine="reference").run_campaign(
            n_trials=48, seed=3
        )
        inj = FaultInjector(program, engine=engine)
        cache = ResultCache(tmp_path / "cache")
        run = inj.run_campaign(
            n_trials=48, seed=3, jobs=jobs, cache=cache, chunk_size=16,
            transport=transport,
            transport_options={"workers": jobs} if jobs > 1 else None,
        )
        assert run.records == serial.records
        assert inj.last_run_stats.transport == transport
        assert inj.last_run_stats.executed_trials == 48
        # Second run replays from the cache: still identical.
        cached = inj.run_campaign(
            n_trials=48, seed=3, jobs=1, cache=cache, chunk_size=16
        )
        assert cached.records == serial.records
        assert inj.last_run_stats.cached_trials == 48

    def test_exhaustive_element_campaigns_match(self):
        ref, batched = _pair(P.dot_product(8))
        for element in ("reg2", "pc", "ir"):
            r = ref.exhaustive_element_campaign(element, n_trials=40, seed=1)
            b = batched.exhaustive_element_campaign(element, n_trials=40, seed=1)
            assert r.records == b.records


class TestTrialEquivalence:
    @pytest.mark.parametrize("element", ["reg0", "reg1", "reg5", "reg15", "pc", "ir"])
    def test_all_element_kinds_over_cycle_grid(self, checksum_pair, element):
        ref, batched = checksum_pair
        step = max(1, ref.golden_cycles // 11)
        for cycle in range(0, ref.golden_cycles, step):
            for bit in (0, 7, 19, 31):
                assert _one(ref, cycle, element, bit) == _one(
                    batched, cycle, element, bit
                )

    def test_fault_at_first_and_last_cycle(self, checksum_pair):
        ref, batched = checksum_pair
        for cycle in (0, ref.golden_cycles - 1):
            for element in ("reg1", "pc", "ir"):
                for bit in range(0, 32, 5):
                    assert _one(ref, cycle, element, bit) == _one(
                        batched, cycle, element, bit
                    )

    def test_fault_past_the_golden_run_never_fires(self, checksum_pair):
        ref, batched = checksum_pair
        for cycle in (ref.golden_cycles, ref.golden_cycles + 100):
            r = _one(ref, cycle, "reg4", 9)
            assert r.outcome is Outcome.MASKED
            assert r == _one(batched, cycle, "reg4", 9)


_HYPO_PAIR = _pair(P.checksum(24))


@given(
    cycle=st.integers(min_value=0, max_value=_HYPO_PAIR[0].golden_cycles + 3),
    element=st.sampled_from(ELEMENTS),
    bit=st.integers(min_value=0, max_value=31),
)
@settings(max_examples=150, deadline=None)
def test_property_any_injection_coordinates_match(cycle, element, bit):
    ref, batched = _HYPO_PAIR
    assert _one(ref, cycle, element, bit) == _one(batched, cycle, element, bit)


_HYPO_PAIRS = [_pair(p) for p in P.all_programs()]
_MAX_GOLDEN = max(pair[0].golden_cycles for pair in _HYPO_PAIRS)


@given(
    prog_index=st.integers(min_value=0, max_value=len(_HYPO_PAIRS) - 1),
    coords=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=_MAX_GOLDEN + 3),
            st.sampled_from(ELEMENTS),
            st.integers(min_value=0, max_value=31),
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_engines_match_on_every_program(prog_index, coords):
    """Random coordinate batches produce bit-identical records on both
    engines, for every seed program, whether the batched engine runs
    them as one ``inject_many`` call (exercising the lane/offtrace
    partition) or as one-lane sweeps."""
    ref, batched = _HYPO_PAIRS[prog_index]
    expected = ref.inject_many(coords)
    assert [_one(batched, *c) for c in coords] == expected
    assert batched.inject_many(coords) == expected


def _dead_coordinates(injector):
    """Every golden-dead ``(cycle, regN, bit)`` coordinate.

    Register-major, ``reg0`` at every cycle; the flipped bit varies with
    the coordinate so the enumeration covers all 32 bit positions.
    """
    coords = []
    for reg in range(16):
        element = f"reg{reg}"
        dead = np.setdiff1d(
            np.arange(injector.golden_cycles), injector.live_cycles(element)
        )
        coords.extend(
            (cycle, element, (7 * cycle + 13 * reg) % 32)
            for cycle in dead.tolist()
        )
    return coords


class TestUnAce:
    """A flip into a register the golden run overwrites before reading
    it (or into ``r0``) is un-ACE: the oracle must classify it MASKED,
    which is what licenses the batched engine to prune it unrun."""

    @pytest.mark.parametrize("program", P.all_programs(), ids=lambda p: p.name)
    def test_dead_coordinates_mask_on_the_oracle(self, program):
        # Every dead pair of the short programs, every 16th of the long.
        ref = FaultInjector(program, engine="reference")
        coords = _dead_coordinates(ref)
        assert [c for c, el, _ in coords if el == "reg0"] == list(
            range(ref.golden_cycles)
        )
        coords = coords[::1 if ref.golden_cycles < 200 else 16]
        records = ref.inject_many(coords)
        assert {r.outcome for r in records} == {Outcome.MASKED}
        with obs.collecting():
            assert FaultInjector(program).inject_many(coords) == records
            counters = obs.metrics_snapshot()["counters"]
        assert counters["arch.fi.engine.pruned_dead"] == len(coords)

    def test_liveness_mask_never_marks_r0(self):
        inj = FaultInjector(P.matmul())
        assert inj.live_cycles("reg0").size == 0
        assert inj.live_cycles("pc") is None and inj.live_cycles("ir") is None
        live = inj.live_cycles("reg1")
        assert np.all(np.diff(live) > 0)
        assert 0 <= live[0] and live[-1] < inj.golden_cycles


class TestEngineInternals:
    def test_reset_clears_pending_ir_fault(self):
        # A pending IR fault that is never consumed must not leak into
        # the next run of a reused CPU object.
        prog = P.checksum(8)
        golden = CPU(prog).run().output(prog.output_range)
        cpu = CPU(prog)
        cpu.flip_bit("ir", 30)
        assert cpu._ir_fault != 0
        result = cpu.run()  # run() resets first: golden execution
        assert result.output(prog.output_range) == golden

    def test_snapshot_restore_round_trip(self):
        prog = P.vector_add(8)
        cpu = CPU(prog)
        for _ in range(10):
            cpu.step()
        snap = cpu.snapshot()
        while not cpu.halted:  # run to completion, mutating state
            cpu.step()
        cpu.restore(snap)
        assert cpu.snapshot() == snap
        assert cpu.cycles == 10

    def test_batched_engine_emits_ladder_metrics(self):
        # A live flip whose effect dies out runs the golden suffix in
        # lockstep and classifies at HALT, like any other lane.
        program = P.dot_product(8)
        coord = (12, "reg3", 31)
        with obs.collecting():
            batched = FaultInjector(program, engine="batched")
            records = batched.inject_many([coord])
            counters = obs.metrics_snapshot()["counters"]
        reference = FaultInjector(program, engine="reference")
        assert records == reference.inject_many([coord])
        assert records[0].outcome is Outcome.MASKED
        assert counters["arch.fi.engine.batch.lanes"] == 1
        assert _engine_counters(counters) == _LANE_COUNTERS

    def test_reconverged_flip_halts_in_lockstep(self):
        # A masked live flip stays in lockstep from its injection cycle
        # to HALT: every suffix cycle before HALT is one vector cycle of
        # its one lane.
        program = P.fir_filter()
        coord = (9, "reg6", 31)
        with obs.collecting():
            batched = FaultInjector(program, engine="batched")
            records = batched.inject_many([coord])
            counters = obs.metrics_snapshot()["counters"]
        reference = FaultInjector(program, engine="reference")
        assert records == reference.inject_many([coord])
        assert records[0].outcome is Outcome.MASKED
        assert counters["arch.fi.engine.batch.lanes"] == 1
        assert counters["arch.fi.engine.batch.divergences"] == 0
        assert (
            counters["arch.fi.engine.batch.vector_cycles"]
            == batched.golden_cycles - coord[0] - 1
        )
        assert _engine_counters(counters) == _LANE_COUNTERS


#: Every engine counter a one-lane sweep that halts in lockstep emits:
#: a lane retires only at HALT, on a crash or on divergence, so no
#: counter tallies any other retirement.
_LANE_COUNTERS = {
    "arch.fi.engine." + name for name in (
        "cycles_replayed", "batch.groups", "batch.lanes", "batch.vector_cycles",
        "batch.lane_cycles", "batch.divergences",
    )
}


def _engine_counters(counters):
    """The ``arch.fi.engine.*`` counter names in a metrics snapshot."""
    return {name for name in counters if name.startswith("arch.fi.engine.")}


class TestBatchedEngine:
    def test_divergence_falls_back_and_classifies_identically(self):
        # A trial whose branch direction leaves the golden trace must
        # drop out of the lockstep sweep and still classify exactly as
        # the oracle engine does.
        program = P.bubble_sort(6)
        coord = (3, "reg1", 0)
        ref, batched = _pair(program)
        expected = _one(ref, *coord)
        with obs.collecting():
            # inject_many forces the batch path even for one trial
            assert batched.inject_many([coord]) == [expected]
            counters = obs.metrics_snapshot()["counters"]
        assert counters["arch.fi.engine.batch.divergences"] == 1

    def test_single_trial_api_matches_batch_api(self):
        # A trial's record must not depend on which other lanes share
        # its sweep: one-lane sweeps match the whole batch.
        batched = FaultInjector(P.dot_product(8), engine="batched")
        coords = [(c, el, b) for c in (0, 5, 40) for el in ("reg2", "pc")
                  for b in (1, 30)]
        assert batched.inject_many(coords) == [
            _one(batched, *c) for c in coords
        ]

    def test_offtrace_and_out_of_range_partitions(self):
        ref, batched = _pair(P.checksum(16))
        n = ref.golden_cycles
        live = batched.live_cycles("reg4")
        dead = sorted(set(range(n)) - set(live.tolist()))
        coords = [
            (0, "ir", 7), (n // 2, "pc", 1), (n + 10, "reg3", 4),
            (int(live[len(live) // 2]), "reg4", 12), (dead[0], "reg4", 9),
        ]
        with obs.collecting():
            records = batched.inject_many(coords)
            counters = obs.metrics_snapshot()["counters"]
        assert records == ref.inject_many(coords)
        assert counters["arch.fi.engine.batch.offtrace_trials"] == 2
        assert counters["arch.fi.engine.out_of_window"] == 1
        assert counters["arch.fi.engine.batch.lanes"] == 1
        assert counters["arch.fi.engine.pruned_dead"] == 1
        assert records[2].outcome is Outcome.MASKED
        assert records[4].outcome is Outcome.MASKED

    def test_hang_tails_step_to_the_budget(self):
        # Hangs run until the block interpreter nears the cycle budget,
        # then CPU.step delivers the cycle-exact timeout: a diverged
        # register lane and a pc/ir start each end in one scalar tail.
        ref, batched = _pair(P.fibonacci(10))
        coords = [(54, "reg4", 28), (19, "reg4", 14), (0, "pc", 3),
                  (58, "ir", 5)]
        with obs.collecting():
            records = batched.inject_many(coords)
            counters = obs.metrics_snapshot()["counters"]
        assert records == ref.inject_many(coords)
        assert {r.outcome for r in records} == {Outcome.HANG}
        assert counters["arch.fi.engine.batch.scalar_tails"] == 4

    def test_pc_ir_only_batch_matches_reference(self):
        # No register lane activates, so every injection cycle of the
        # sweep starts only scalar pc/ir trials.
        ref, batched = _pair(P.fibonacci(10))
        n = ref.golden_cycles
        coords = [(c, el, b) for c in (0, 7, 7, n // 2, n - 1)
                  for el in ("pc", "ir") for b in (0, 5, 31)]
        with obs.collecting():
            records = batched.inject_many(coords)
            counters = obs.metrics_snapshot()["counters"]
        assert records == ref.inject_many(coords)
        assert counters["arch.fi.engine.batch.offtrace_trials"] == len(coords)
        assert counters["arch.fi.engine.batch.lanes"] == 0

    def test_pc_ir_and_register_lanes_share_a_cycle(self):
        ref, batched = _pair(P.fibonacci(10))
        live = batched.live_cycles("reg4").tolist()
        coords = [
            (c, el, b) for c in live[1::9]
            for el, b in (("pc", 2), ("reg4", 3), ("ir", 20), ("reg4", 30))
        ]
        with obs.collecting():
            records = batched.inject_many(coords)
            counters = obs.metrics_snapshot()["counters"]
        assert records == ref.inject_many(coords)
        assert counters["arch.fi.engine.batch.offtrace_trials"] == len(coords) // 2
        assert counters["arch.fi.engine.batch.lanes"] == len(coords) // 2

    @pytest.mark.parametrize(
        "program", P.all_programs(), ids=lambda program: program.name
    )
    def test_power_on_fast_forward_reaches_the_last_cycles(self, program):
        # Every sweep starts at power-on, so a lone trial two cycles
        # before HALT fast-forwards golden state over the whole prefix.
        ref, batched = _pair(program)
        c = batched.golden_cycles - 2
        reg = next(
            r for r in range(1, 16) if c in batched.live_cycles(f"reg{r}")
        )
        for coord in ((c, f"reg{reg}", 3), (c, "pc", 1), (c, "ir", 20)):
            with obs.collecting():
                record = _one(batched, *coord)
                counters = obs.metrics_snapshot()["counters"]
            assert record == _one(ref, *coord)
            assert counters["arch.fi.engine.cycles_replayed"] == c
            assert counters["arch.fi.engine.batch.groups"] == 1

    def test_batch_occupancy_metrics(self):
        program = P.dot_product(8)
        batched = FaultInjector(program, engine="batched")
        coords = [(12, "reg3", 31)]
        coords += [
            (c, "reg2", b) for c in batched.live_cycles("reg2")[::7].tolist()
            for b in (1, 30)
        ]
        with obs.collecting():
            batched.inject_many(coords)
            counters = obs.metrics_snapshot()["counters"]
        assert counters.get("arch.fi.engine.pruned_dead", 0) == 0
        assert counters["arch.fi.engine.batch.groups"] >= 1
        assert counters["arch.fi.engine.batch.lanes"] == len(coords)
        assert counters["arch.fi.engine.batch.vector_cycles"] > 0
        # Occupancy: lane-cycles per vector-cycle is the mean active
        # width; it can never exceed the lane count.
        assert (
            counters["arch.fi.engine.batch.lane_cycles"]
            <= counters["arch.fi.engine.batch.lanes"]
            * counters["arch.fi.engine.batch.vector_cycles"]
        )

    def test_uniform_campaign_trial_accounting(self):
        # Every trial takes exactly one engine path: pruned as dead, a
        # lockstep lane, an off-trace pc/ir run, or out of the window.
        with obs.collecting():
            FaultInjector(P.checksum(24)).run_campaign(n_trials=300, seed=4)
            counters = obs.metrics_snapshot()["counters"]
        assert counters["arch.fi.engine.pruned_dead"] > 0
        assert (
            counters["arch.fi.engine.pruned_dead"]
            + counters["arch.fi.engine.batch.lanes"]
            + counters["arch.fi.engine.batch.offtrace_trials"]
            + counters.get("arch.fi.engine.out_of_window", 0)
            == counters["arch.fault_injection.trials"] == 300
        )

    def test_engine_stats_reports_resolution_and_ladder(self):
        inj = FaultInjector(P.fibonacci(10))
        assert inj.engine_stats() == {
            "engine": "batched",
            "golden_cycles": inj.golden_cycles,
            "max_cycles": inj.max_cycles,
        }


class TestCoordinateValidation:
    """Both engines reject a coordinate no trial can inject, wherever it
    sits in the batch or the golden window."""

    @pytest.mark.parametrize("engine", ["batched", "reference"])
    @pytest.mark.parametrize("coord", [
        (4, "reg1", 40), (4, "reg1", 32), (4, "reg1", -1),
        (5, "reg16", 1), (5, "r1", 1), (10_000, "reg3", 32),
    ])
    def test_invalid_coordinate_raises(self, engine, coord):
        injector = FaultInjector(P.checksum(8), engine=engine)
        with pytest.raises(ValueError, match="invalid fault coordinate"):
            injector.inject_many([(3, "reg2", 1), coord])
