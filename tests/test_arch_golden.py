"""The one golden trace per program (:mod:`repro.arch.golden`).

``data/golden_pins.json`` holds ``element_features`` for the eight seed
programs and ``measure_protection`` for the replication-transform test
fixtures, as the per-analysis golden reruns (and the ``CPU``'s per-access
read/write counters) computed them before the single recording pass
replaced them; the trace-derived values must equal them exactly.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.arch import FIAccelerationStudy, measure_protection
from repro.arch import programs as P
from repro.arch.cpu import CPU
from repro.arch.golden import GoldenTrace
from repro.arch.isa import N_REGISTERS
from repro.arch.vulnerability import element_features

PINS = json.loads((Path(__file__).parent / "data" / "golden_pins.json").read_text())
PROGRAMS = P.all_programs()


class _CountingCPU(CPU):
    """Counts every register access ``CPU._execute`` makes."""

    def reset(self):
        super().reset()
        self.reads = [0] * N_REGISTERS
        self.writes = [0] * N_REGISTERS

    def _read(self, reg):
        self.reads[reg] += 1
        return super()._read(reg)

    def _write(self, reg, value):
        self.writes[reg] += 1
        super()._write(reg, value)


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_element_features_match_pins(program):
    elements, X = element_features(program)
    pin = PINS["element_features"][program.name]
    assert elements == pin["elements"]
    assert X.tolist() == pin["X"]


def test_acceleration_study_records_each_trace_once():
    """The study's features read each injector's trace: one ``arch.golden``
    span per program, and the pooled rows still equal the pins."""
    programs = PROGRAMS[:2]

    def count(node):
        return node["count"] * (node["name"] == "arch.golden") + sum(
            count(child) for child in node.get("children", ()))

    try:
        with obs.collecting():
            study = FIAccelerationStudy(programs, n_trials_per_element=4)
            spans = count(obs.span_tree())
    finally:
        obs.reset()
    assert spans == len(programs)
    assert study._X.tolist() == [
        row for p in programs for row in PINS["element_features"][p.name]["X"]]


@pytest.mark.parametrize("name, protected, n_trials, seed", [
    ("full_n200_seed0", None, 200, 0),
    ("partial45_n120_seed1", {4, 5}, 120, 1),
    ("full_n120_seed1", None, 120, 1),
])
def test_measure_protection_matches_pins(name, protected, n_trials, seed):
    program = P.checksum(10)
    if protected is None:
        protected = set(range(len(program.instructions)))
    measured = measure_protection(program, protected, n_trials=n_trials, seed=seed)
    assert dataclasses.asdict(measured) == PINS["measure_protection"][name]


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_trace_replays_the_cpu(program):
    """Fast-forwarding the effect lists reproduces the CPU's state at
    every cycle, and the trace's summary matches the CPU's run."""
    golden = GoldenTrace.record(program)
    cpu = _CountingCPU(program, max_cycles=10**6)
    regs = [0] * N_REGISTERS
    overlay = {}
    for c in range(golden.cycles):
        assert cpu.pc == golden.pc_trace[c]
        cpu.step()
        if golden.written[c] >= 0:
            regs[golden.written[c]] = golden.value[c]
        if golden.staddr[c] >= 0:
            overlay[golden.staddr[c]] = golden.stval[c]
        assert regs == cpu.registers
        assert overlay == cpu._mem_overlay
    assert cpu.halted and cpu.cycles == golden.cycles == len(golden.pc_trace)
    assert golden.output == cpu.output(program.output_range)
    assert golden.register_counts() == (cpu.reads, cpu.writes)
    assert golden.context == tuple(
        (pc, program.instructions[pc].opcode.value) for pc in golden.pc_trace)


def test_cycles_by_pc_partitions_the_trace():
    golden = GoldenTrace.record(P.bubble_sort())
    by_pc = golden.cycles_by_pc()
    assert sorted(c for cycles in by_pc.values() for c in cycles) == list(
        range(golden.cycles))
    for pc, cycles in by_pc.items():
        assert all(golden.pc_trace[c] == pc for c in cycles)
        assert cycles == sorted(cycles)


def test_trace_is_immutable():
    golden = GoldenTrace.record(P.fibonacci(6))
    with pytest.raises(dataclasses.FrozenInstanceError):
        golden.cycles = 0
    with pytest.raises(ValueError):
        golden.live_mask[0] = np.uint32(1)
