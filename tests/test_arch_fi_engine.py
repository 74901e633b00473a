"""FI engine equivalence: batched vs the reference oracle.

The reference engine re-executes every trial from cycle 0 and is kept
as the oracle; the batched engine fast-forwards golden state to each
trial's injection cycle and runs the faulty suffix on the
block-compiled interpreter.  Every test here pins the contract that
both engines produce bit-identical :class:`InjectionRecord`\\ s —
outcomes, injection context, everything.  Single-coordinate
:meth:`FaultInjector.inject_many` calls force one-trial sweeps, so the
per-trial tests exercise every trial in isolation.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch import FaultInjector, Outcome
from repro.arch import programs as P
from repro.arch.assembler import assemble
from repro.arch.cpu import CPU, MEMORY_LIMIT, CrashError
from repro.arch.isa import WORD_MASK

ELEMENTS = [f"reg{i}" for i in range(16)] + ["pc", "ir"]


def _pair(program, **kwargs):
    """(reference, batched) injectors with identical configuration."""
    return (
        FaultInjector(program, engine="reference", **kwargs),
        FaultInjector(program, engine="batched", **kwargs),
    )


def _one(injector, cycle, element, bit):
    """One trial as a single-coordinate (one-trial) sweep."""
    (record,) = injector.inject_many([(cycle, element, bit)])
    return record


def _one_counted(injector, coord):
    """``(record, engine counters)`` of one coordinate as a one-trial sweep.

    Counter names lose their ``arch.fi.engine.`` prefix.
    """
    with obs.collecting():
        record = _one(injector, *coord)
        counters = obs.metrics_snapshot()["counters"]
    prefix = "arch.fi.engine."
    return record, {
        name[len(prefix):]: value for name, value in counters.items()
        if name.startswith(prefix)
    }


def _simulated_cycles(injector, coord):
    """Cycles the oracle simulates after the fault of ``coord``.

    The cycles to halt or to the budget, less the injection cycle and,
    for ``ir``, the one :meth:`CPU.step` that consumes the fault.
    """
    cpu = CPU(injector.program, max_cycles=injector.max_cycles)
    try:
        cpu.run(fault=coord)
    except TimeoutError:
        pass
    cycle, element, _ = coord
    return cpu.cycles - cycle - (element == "ir")


def _without_certificate(monkeypatch):
    """Engines built from now on certify no loop: hangs run to the budget."""
    from types import SimpleNamespace

    from repro.arch import block_interp

    monkeypatch.setattr(
        block_interp, "LoopCertificates",
        lambda program, leaders: SimpleNamespace(checks={}),
    )


@pytest.fixture
def no_certificate(monkeypatch):
    """Engines built in the test certify no loop."""
    _without_certificate(monkeypatch)


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
        for cycle in (-1, ref.golden_cycles, ref.golden_cycles + 100):
            r = _one(ref, cycle, "reg4", 9)
            assert r.outcome is Outcome.MASKED
            assert (r.pc_at_injection, r.opcode_at_injection) == (-1, "")
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
        # A live flip whose effect dies out runs the golden suffix on
        # the block runner and classifies at HALT, like any other trial.
        program = P.dot_product(8)
        coord = (12, "reg3", 31)
        batched = FaultInjector(program, engine="batched")
        record, counters = _one_counted(batched, coord)
        reference = FaultInjector(program, engine="reference")
        assert record == _one(reference, *coord)
        assert record.outcome is Outcome.MASKED
        assert counters == {
            "batch.lanes": 1,
            "block_cycles": batched.golden_cycles - coord[0],
        }

    def test_reconverged_flip_halts_in_lockstep(self):
        # A masked live flip follows the golden trace from its injection
        # cycle to HALT: the block runner simulates exactly the golden
        # suffix, HALT included.
        program = P.fir_filter()
        coord = (9, "reg6", 31)
        batched = FaultInjector(program, engine="batched")
        record, counters = _one_counted(batched, coord)
        reference = FaultInjector(program, engine="reference")
        assert record == _one(reference, *coord)
        assert record.outcome is Outcome.MASKED
        assert counters == {
            "batch.lanes": 1,
            "block_cycles": batched.golden_cycles - coord[0],
        }


class TestBatchedEngine:
    def test_divergence_falls_back_and_classifies_identically(self):
        # A trial whose branch direction leaves the golden trace runs a
        # suffix of its own length and still classifies exactly as the
        # oracle engine does.
        program = P.bubble_sort(6)
        coord = (3, "reg1", 0)
        ref, batched = _pair(program)
        expected = _one(ref, *coord)
        # inject_many forces the batch path even for one trial
        record, counters = _one_counted(batched, coord)
        assert record == expected
        assert record.outcome is Outcome.SDC
        assert counters["batch.lanes"] == 1
        assert counters["block_cycles"] == _simulated_cycles(ref, coord)
        assert counters["block_cycles"] != batched.golden_cycles - coord[0]

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

    def test_hang_tails_step_to_the_budget(self, no_certificate):
        # Without the hang certificate, hangs run until the block
        # interpreter nears the cycle budget, then CPU.step delivers the
        # cycle-exact timeout: a diverged register lane and a pc/ir
        # start each end in one scalar tail.
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

    @pytest.mark.parametrize("program", P.all_programs(), ids=lambda p: p.name)
    def test_pc_flips_enter_the_block_runner_at_every_pc(self, program):
        # Every in-program PC is the landing point of some pc flip; the
        # first and last golden cycles that reach it enter the block
        # runner there, mid-block or not, and must match the oracle.
        ref, batched = _pair(program)
        n = len(program.instructions)
        landings = {}
        for cycle, pc in enumerate(batched.golden_pc_trace):
            for bit in range(32):
                landings.setdefault(pc ^ (1 << bit), []).append(
                    (cycle, "pc", bit))
        assert set(range(n)) <= set(landings)
        coords = sorted({c for pc in range(n)
                         for c in (landings[pc][0], landings[pc][-1])})
        with obs.collecting():
            records = batched.inject_many(coords)
            counters = obs.metrics_snapshot()["counters"]
        assert records == ref.inject_many(coords)
        assert counters["arch.fi.engine.batch.offtrace_trials"] == len(coords)
        assert "arch.fi.engine.pc_outside" not in counters

    def test_pc_flips_outside_the_program_crash_unrun(self):
        # A pc flip that lands past the last instruction is CRASH on the
        # first fetch: nothing is simulated.
        ref, batched = _pair(P.checksum(16))
        n = len(batched.program.instructions)
        coords = [(c, "pc", b) for c in (0, 9, batched.golden_cycles - 1)
                  for b in (5, 20, 31)
                  if batched.golden_pc_trace[c] ^ (1 << b) >= n]
        with obs.collecting():
            records = batched.inject_many(coords)
            counters = obs.metrics_snapshot()["counters"]
        assert records == ref.inject_many(coords)
        assert {r.outcome for r in records} == {Outcome.CRASH}
        assert counters["arch.fi.engine.pc_outside"] == len(coords) == 9
        assert "arch.fi.engine.block_cycles" not in counters

    @pytest.mark.parametrize(
        "program", P.all_programs(), ids=lambda program: program.name
    )
    def test_power_on_fast_forward_reaches_the_last_cycles(self, program):
        # Every sweep starts at power-on, so a lone trial two cycles
        # before HALT fast-forwards golden state over the whole prefix.
        # Every cycle the oracle simulates after the fault is either run
        # on the block runner or skipped by a hang proof; a pc flip out
        # of the program, or a crash, ends the trial.
        ref, batched = _pair(program)
        c = batched.golden_cycles - 2
        reg = next(
            r for r in range(1, 16) if c in batched.live_cycles(f"reg{r}")
        )
        for coord in ((c, f"reg{reg}", 3), (c, "pc", 1), (c, "ir", 20)):
            record, counters = _one_counted(batched, coord)
            assert record == _one(ref, *coord)
            register = coord[1].startswith("reg")
            assert counters["batch.lanes"] == register
            assert counters.get("batch.offtrace_trials", 0) == (not register)
            if record.outcome is Outcome.CRASH:
                continue
            assert (
                counters["block_cycles"]
                + counters.get("hang_cycles_skipped", 0)
                == _simulated_cycles(ref, coord)
            )
            assert counters.get("hangs_proven", 0) == (
                record.outcome is Outcome.HANG)

    def test_batch_occupancy_metrics(self):
        program = P.dot_product(8)
        batched = FaultInjector(program, engine="batched")
        coords = [(12, "reg3", 31)]
        coords += [
            (c, "reg2", b) for c in batched.live_cycles("reg2")[::7].tolist()
            for b in (1, 30)
        ]
        with obs.collecting():
            records = batched.inject_many(coords)
            counters = obs.metrics_snapshot()["counters"]
        assert records == FaultInjector(program, engine="reference").inject_many(
            coords)
        assert counters.get("arch.fi.engine.pruned_dead", 0) == 0
        assert counters["arch.fi.engine.batch.lanes"] == len(coords)
        assert "arch.fi.engine.batch.offtrace_trials" not in counters
        # The block runner simulates each trial from its injection cycle
        # at most to the cycle budget.
        assert 0 < counters["arch.fi.engine.block_cycles"] <= sum(
            batched.max_cycles - cycle for cycle, _, _ in coords)

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


# -- the hang certificate --------------------------------------------------

def _logged_attempts(injector):
    """Log every certificate attempt of ``injector``'s engine.

    Returns the live list of ``(header, limit, first)`` calls.
    """
    checks = injector._batched_engine()._block.loops.checks
    calls = []
    for header, (check, min_len) in list(checks.items()):
        def logged(regs, limit, check=check, header=header):
            first = check(regs, limit)
            calls.append((header, limit, first))
            return first
        checks[header] = (logged, min_len)
    return calls


def _proven(injector, coord):
    """``(record, hangs proven)`` of one coordinate as a one-lane sweep."""
    with obs.collecting():
        (record,) = injector.inject_many([coord])
        counters = obs.metrics_snapshot()["counters"]
    return record, counters.get("arch.fi.engine.hangs_proven", 0)


_CERTIFIED_HEADERS = {
    "vector_add": {2}, "dot_product": {3}, "matmul": {2, 4, 7},
    "bubble_sort": {2, 5}, "fibonacci": {4}, "checksum": {3},
    "fir_filter": {3, 6}, "binary_search": set(),
}

#: Hand-built loops whose lanes reach a certifiable header after its arm
#: and must *not* be proven: ``(source, coordinate, outcome, headers)``,
#: ``headers`` being the loops that certify.
_MUST_NOT_PROVE = {
    # 9 trips; r2 flipped to 41 makes HALT run on the last budget cycle.
    "halt_on_the_last_cycle": ("""
        addi r1, r0, 0
        lui r2, 9
    loop: beq r1, r2, done
        addi r1, r1, 1
        jmp loop
    done: st r1, r0, 0
        halt
    .output 0 1
    """, (2, "reg2", 5), Outcome.SDC, {2}),
    # A store walk ending 40 words below MEMORY_LIMIT; a bound of 48
    # walks into the limit.
    "store_walk_into_the_limit": (f"""
        lui r3, {MEMORY_LIMIT - 40}
        addi r1, r0, 0
        lui r2, 16
    loop: beq r1, r2, done
        add r4, r3, r1
        st r1, r4, 0
        addi r1, r1, 1
        jmp loop
    done: halt
    .output 0 1
    """, (3, "reg2", 5), Outcome.CRASH, {3}),
    # The exit compares a loaded word: the loop never certifies.
    "exit_on_a_loaded_value": ("""
        lui r1, 100
    loop: ld r5, r1, 0
        beq r5, r0, done
        addi r1, r1, 1
        jmp loop
    done: st r1, r0, 0
        halt
    .output 0 1
    """ + "".join(f".word {a} {a}\n" for a in range(1, 120)),
        (1, "reg1", 5), Outcome.SYMPTOM, set()),
    # A signed exit taken once r1 wraps past 2^31 - 1.
    "signed_exit_across_the_wrap": (f"""
        lui r1, {2**31 - 10001}
        lui r3, 1000
    loop: add r1, r1, r3
        blt r1, r0, done
        jmp loop
    done: st r1, r0, 0
        halt
    .output 0 1
    """, (1, "reg1", 14), Outcome.SDC, {2}),
    # Counting down past its (flipped) bound, the walk stores to -1.
    "step_of_minus_one": ("""
        lui r1, 40
        lui r2, 20
    loop: st r1, r1, 0
        beq r1, r2, done
        addi r1, r1, -1
        jmp loop
    done: halt
    .output 0 1
    """, (3, "reg2", 5), Outcome.CRASH, {2}),
    # The inner bound is the outer counter, so only the inner loop
    # certifies; a flipped outer counter hangs in the outer loop.
    "triangular_inner_loop": ("""
        addi r1, r0, 0
        lui r2, 8
    outer: beq r1, r2, done
        addi r3, r0, 0
    inner: beq r3, r1, next
        add r4, r1, r3
        st r4, r3, 200
        addi r3, r3, 1
        jmp inner
    next: addi r1, r1, 1
        jmp outer
    done: halt
    .output 200 8
    """, (1, "reg1", 4), Outcome.HANG, {4}),
}


class TestHangCertificate:
    """A lane that reaches a certifiable loop header after ``golden_cycles``
    is answered ``HANG`` at once when no exit or crash can come before
    the budget (:mod:`repro.arch.loop_cert`).  Every record must still
    equal the reference engine's."""

    @pytest.mark.parametrize("program", P.all_programs(), ids=lambda p: p.name)
    def test_seed_program_loops_that_certify(self, program):
        loops = FaultInjector(program)._batched_engine()._block.loops
        assert set(loops.checks) == _CERTIFIED_HEADERS[program.name]

    def test_tail_test_hangs_are_proven(self):
        ref, batched = _pair(P.fibonacci(10))
        coords = [(54, "reg4", 28), (19, "reg4", 14), (0, "pc", 3),
                  (58, "ir", 5)]
        with obs.collecting():
            records = batched.inject_many(coords)
            counters = obs.metrics_snapshot()["counters"]
        assert records == ref.inject_many(coords)
        assert counters["arch.fi.engine.hangs_proven"] == 4
        assert "arch.fi.engine.batch.scalar_tails" not in counters
        assert 0 < counters["arch.fi.engine.hang_cycles_skipped"] < 4 * (
            batched.max_cycles - batched.golden_cycles)
        assert counters["arch.fi.engine.block_cycles"] > 0

    @pytest.mark.parametrize("case", sorted(_MUST_NOT_PROVE))
    def test_hand_built_loop_is_not_proven(self, case):
        source, coord, outcome, headers = _MUST_NOT_PROVE[case]
        ref, batched = _pair(assemble(source, name=case))
        assert set(batched._batched_engine()._block.loops.checks) == headers
        attempts = _logged_attempts(batched)
        record, proven = _proven(batched, coord)
        assert record == _one(ref, *coord)
        assert record.outcome is outcome
        assert proven == 0
        if headers:  # the lane was offered to a certificate and declined
            assert attempts and all(first < limit for _, limit, first in attempts)

    def test_exit_in_the_last_budget_iteration_is_exact(self):
        # At the header on cycle 2 with r1 = 0, the loop exits after
        # exactly r2 trips of 3 cycles, and the budget leaves
        # ceil((128 - 2) / 3) = 42: r2 = 41 halts on the last budget
        # cycle (the case above), r2 = 42 would time out.
        source = _MUST_NOT_PROVE["halt_on_the_last_cycle"][0]
        injector = FaultInjector(assemble(source, name="last_cycle"))
        check, min_len = injector._batched_engine()._block.loops.checks[2]
        limit = -(-(injector.max_cycles - 2) // min_len)
        assert (injector.max_cycles, min_len, limit) == (128, 3, 42)
        regs = [0] * 16
        for trips in (0, 9, 41, 42, 43, 2**31, 2**32 - 1):
            regs[2] = trips
            assert check(regs, limit) == min(trips, limit)

    @pytest.mark.parametrize("program", P.all_programs(), ids=lambda p: p.name)
    def test_proven_coordinates_hang_on_the_oracle(self, program):
        # Every HANG of one 4096-trial campaign, run as one-lane sweeps
        # to learn which the certificate proved; an evenly spaced sample
        # of at most 60 of those re-runs on the reference engine.
        ref, batched = _pair(program)
        records = batched.run_campaign(n_trials=4096, seed=1).records
        hangs = [(r.cycle, r.element, r.bit) for r in records
                 if r.outcome is Outcome.HANG]
        proven = [c for c in hangs if _proven(batched, c)[1]]
        if program.name == "binary_search":
            assert proven == []
            return
        assert len(proven) > len(hangs) // 2
        sample = proven[::-(-len(proven) // 60)]
        assert {r.outcome for r in ref.inject_many(sample)} == {Outcome.HANG}

    def test_records_equal_without_the_certificate(self, monkeypatch):
        # The certificate changes no record: a campaign on an engine
        # built without it equals one on an engine built with it.
        with_cert = FaultInjector(P.bubble_sort())
        assert with_cert._batched_engine()._block.loops.checks
        _without_certificate(monkeypatch)
        without = FaultInjector(P.bubble_sort())
        assert without._batched_engine()._block.loops.checks == {}
        assert (without.run_campaign(n_trials=2048, seed=5).records
                == with_cert.run_campaign(n_trials=2048, seed=5).records)


@st.composite
def _loop_programs(draw):
    """Assembly of a counted loop, optionally around a counted inner loop.

    The outer counter ``r1`` runs from a random start by a random step
    to its bound ``r2`` (a ``beq`` at the header, or a ``bne``/``blt``
    latch); the pointer ``r7`` starts at a random base, near 0 or near
    ``MEMORY_LIMIT``, and moves by its own step.  The inner loop walks
    ``r4`` to ``r5`` and stores only where a loaded word is not below
    ``r9``: an internal, data-dependent branch.
    """
    trips = draw(st.integers(1, 6))
    step = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    exit_kind = draw(st.sampled_from(["beq", "bne", "blt"]))
    if exit_kind == "blt":
        step = abs(step)
        start = draw(st.integers(-50, 50)) & WORD_MASK
    else:
        start = draw(st.integers(0, WORD_MASK))
    bound = (start + trips * step) & WORD_MASK
    base = draw(st.one_of(st.integers(0, 40),
                          st.integers(MEMORY_LIMIT - 40, MEMORY_LIMIT - 1)))
    pstep = draw(st.integers(-3, 3))
    off = draw(st.integers(-8, 8))
    lines = [
        f"lui r1, {start}", f"lui r2, {bound}", f"lui r7, {base}",
        f"lui r9, {draw(st.integers(0, 60))}",
        "outer:" + (" beq r1, r2, done" if exit_kind == "beq" else " nop"),
    ]
    if draw(st.booleans()):
        istep = draw(st.sampled_from([-2, -1, 1, 2]))
        istart = draw(st.integers(-4, 4))
        iend = istart + draw(st.integers(0, 4)) * istep
        lines += [
            f"addi r4, r0, {istart}", f"addi r5, r0, {iend}",
            "inner: beq r4, r5, inner_done", "add r6, r7, r4",
            f"ld r8, r6, {draw(st.integers(-4, 4))}", "blt r8, r9, skip",
            f"st r1, r6, {draw(st.integers(-4, 4))}",
            f"skip: addi r4, r4, {istep}", "jmp inner", "inner_done: nop",
        ]
    lines += [f"st r1, r7, {off}", f"addi r7, r7, {pstep}",
              f"addi r1, r1, {step}"]
    if exit_kind == "beq":
        lines.append("jmp outer")
    else:
        lines.append(f"{exit_kind} r1, r2, outer")
    out = min(max(base + off, 0), MEMORY_LIMIT - 4)
    lines += ["done: halt", f".output {out} 4"]
    words = draw(st.lists(st.integers(0, 99), min_size=8, max_size=8))
    lines += [f".word {(base + i) % MEMORY_LIMIT} {w}" for i, w in enumerate(words)]
    return "\n".join(lines)


@given(
    source=_loop_programs(),
    coords=st.lists(
        st.tuples(st.floats(0, 1, exclude_max=True),
                  st.sampled_from(ELEMENTS[1:10] + ["pc", "ir"]),
                  st.integers(0, 31)),
        min_size=1, max_size=12,
    ),
)
@settings(max_examples=80, deadline=None)
def test_property_generated_loops_match_the_oracle(source, coords):
    """On generated loop programs, random coordinates give the same
    records on both engines, with the hang certificate live."""
    program = assemble(source, name="generated")
    try:
        CPU(program, max_cycles=600).run()
    except (TimeoutError, CrashError):
        assume(False)
    ref, batched = _pair(program)
    coords = [(int(f * batched.golden_cycles), el, b) for f, el, b in coords]
    assert batched.inject_many(coords) == ref.inject_many(coords)


def test_exhaustive_counts_match_the_ground_truth():
    # Every (cycle, element, bit) of the five short seed programs,
    # against the exact counts perfbench/ground_truth.py recorded.
    exact = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "avf_exact.json")
        .read_text()
    )["programs"]
    for program in P.all_programs():
        if program.name in ("matmul", "bubble_sort", "fir_filter"):
            continue
        injector = FaultInjector(program)
        coords = [(c, el, b) for c in range(injector.golden_cycles)
                  for el in ELEMENTS for b in range(32)]
        counts = {o.value: 0 for o in Outcome}
        for start in range(0, len(coords), 8192):
            for record in injector.inject_many(coords[start:start + 8192]):
                counts[record.outcome.value] += 1
        assert counts == exact[program.name]["counts"], program.name
