"""The golden (fault-free) trace of a program, recorded in one pass.

Every Sec. III analysis starts from one fault-free run of the workload,
as ACE analysis derives AVF from a single golden trace.  The fault
injector, the batched engine (which fast-forwards golden state with the
per-cycle effects) and the studies all read the :class:`GoldenTrace`
that :meth:`GoldenTrace.record` builds in one :meth:`CPU.step` pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.arch.cpu import CPU
from repro.arch.isa import N_REGISTERS, WORD_MASK, Opcode, Program

#: Cycle budget for the golden (fault-free) run.
GOLDEN_MAX_CYCLES = 1_000_000


@dataclass(frozen=True, eq=False)
class GoldenTrace:
    """One program's fault-free run, per cycle.

    Cycle ``c`` executes ``program.instructions[pc_trace[c]]``, which
    writes ``value[c]`` into register ``written[c]`` (``-1``: none, or
    ``r0``) and stores ``stval[c]`` at ``staddr[c]`` (``-1``: no store).
    ``live_mask[c]`` has bit ``r`` set when register ``r`` is live-in at
    cycle ``c``; ``context[c]`` is the ``(pc, opcode)`` every injection
    record at that cycle carries.
    """

    program: Program
    pc_trace: tuple
    output: tuple
    cycles: int
    written: tuple
    value: tuple
    staddr: tuple
    stval: tuple
    live_mask: np.ndarray
    context: tuple

    @classmethod
    def record(cls, program):
        """Step ``program`` to its halt once, under an ``arch.golden`` span."""
        instructions = program.instructions
        writes = [instr.writes or -1 for instr in instructions]
        cpu = CPU(program, max_cycles=GOLDEN_MAX_CYCLES)
        regs = cpu.registers
        trace, written, value, staddr, stval = [], [], [], [], []
        with obs.span("arch.golden", program=program.name):
            while not cpu.halted:
                pc = cpu.pc
                cpu.step()
                instr = instructions[pc]
                r = writes[pc]
                trace.append(pc)
                written.append(r)
                value.append(regs[r] if r > 0 else 0)
                # A store writes no register: its operands are still intact.
                store = instr.opcode is Opcode.ST
                staddr.append((regs[instr.rs1] + instr.imm) & WORD_MASK if store else -1)
                stval.append(regs[instr.rs2] if store else 0)
        live_mask = _liveness(instructions, trace)
        live_mask.flags.writeable = False
        context = [(pc, i.opcode.value) for pc, i in enumerate(instructions)]
        return cls(
            program, tuple(trace), cpu.output(program.output_range),
            cpu.cycles, tuple(written), tuple(value), tuple(staddr),
            tuple(stval), live_mask, tuple(context[pc] for pc in trace),
        )

    def register_counts(self):
        """Dynamic ``(reads, writes)`` per register, as two lists of ints.

        :attr:`Instruction.reads` / ``.writes`` list exactly the
        registers ``CPU._execute`` accesses, duplicates and ``r0`` too.
        """
        reads, writes = [0] * N_REGISTERS, [0] * N_REGISTERS
        for pc, n in Counter(self.pc_trace).items():
            instr = self.program.instructions[pc]
            for r in instr.reads:
                reads[r] += n
            if instr.writes is not None:
                writes[instr.writes] += n
        return reads, writes

    def cycles_by_pc(self):
        """Mapping pc -> the golden cycles it ran at, in first-run order."""
        out = {}
        for cycle, pc in enumerate(self.pc_trace):
            out.setdefault(pc, []).append(cycle)
        return out


def _liveness(instructions, trace):
    """Golden live-in register bitmask at every cycle (``uint32``).

    Bit ``r`` of entry ``c`` is set when the golden run reads register
    ``r`` at or after cycle ``c`` before overwriting it; a flip into a
    clear bit is un-ACE, answered ``MASKED`` unrun.  ``r0`` is never set.
    """
    kill = [
        ~(1 << instr.writes) if instr.writes is not None else ~0
        for instr in instructions
    ]
    gen = [sum(1 << r for r in set(instr.reads)) for instr in instructions]
    masks = [0] * len(trace)
    live = 0
    for cycle in range(len(trace) - 1, -1, -1):
        pc = trace[cycle]
        live = (live & kill[pc]) | gen[pc]
        masks[cycle] = live & ~1
    return np.array(masks, np.uint32)
