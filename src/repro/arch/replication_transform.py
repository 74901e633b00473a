"""Program-level duplicate-and-compare transformation (refs [25], [26]).

The software error-resilience approaches the paper surveys (NEMESIS-style)
*transform* the program: each protected instruction's result is computed
twice and the copies compared; a mismatch branches to a detection handler
before the corrupted value can reach an output.  This module implements
the transformation on :class:`repro.arch.isa.Program` so protection is
*measured* — real cycle overhead on the CPU simulator, real detection of
injected faults — instead of modelled analytically as in
:mod:`repro.arch.selective_replication`.

Scheme per protected register-writing instruction ``I`` (dest ``rd``):

* if ``rd`` is also a source, its pre-write value is first saved to a
  scratch register;
* ``I`` executes normally;
* a recomputation of ``I`` into a second scratch register follows (with
  the saved source substituted where needed);
* ``bne rd, scratch, handler`` catches divergence.

The handler stores a magic flag word and halts; outcome classification
then distinguishes *detected* faults from silent corruptions.  Branch
targets of the original program are relocated across the inserted code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.cpu import CPU, CrashError
from repro.arch.golden import GoldenTrace
from repro.arch.isa import (
    ARITH_OPS,
    BRANCH_OPS,
    Instruction,
    Opcode,
    Program,
    add,
    bne,
    halt,
    lui,
    st,
)

DETECTION_FLAG_ADDR = 900
DETECTION_FLAG_VALUE = 0x5A5A

_PROTECTABLE_OPS = ARITH_OPS | {Opcode.ADDI, Opcode.LUI, Opcode.LD}


def _substitute_source(instr, old_reg, new_reg):
    """Copy of ``instr`` with source register ``old_reg`` replaced."""
    rs1 = new_reg if instr.rs1 == old_reg else instr.rs1
    rs2 = new_reg if instr.rs2 == old_reg else instr.rs2
    return Instruction(instr.opcode, rd=instr.rd, rs1=rs1, rs2=rs2, imm=instr.imm)


def protect_program(program, protected_indices, save_reg=15, check_reg=14,
                    flag_reg=13):
    """Return a protected :class:`Program` with duplicate-and-compare code.

    Parameters
    ----------
    protected_indices:
        Original-program instruction indices to protect.  Only
        register-writing, protectable instructions are transformed;
        others in the set are silently left as-is.
    save_reg / check_reg / flag_reg:
        Scratch registers the transform may clobber; the original program
        must not use them.

    Raises
    ------
    ValueError
        When the original program uses a scratch register.
    """
    scratch = {save_reg, check_reg, flag_reg}
    for instr in program.instructions:
        used = set(instr.reads)
        if instr.writes is not None:
            used.add(instr.writes)
        if used & scratch:
            raise ValueError(
                f"program uses scratch register(s) {sorted(used & scratch)}"
            )
    protected = set(protected_indices)

    # Emit blocks per original instruction; remember each block's start.
    blocks = []  # list of lists of ("instr", Instruction) or ("check",)
    for idx, instr in enumerate(program.instructions):
        block = []
        if (
            idx in protected
            and instr.opcode in _PROTECTABLE_OPS
            and instr.writes is not None
        ):
            rd = instr.writes
            recompute = instr
            if rd in instr.reads:
                block.append(("plain", add(save_reg, rd, 0)))  # save old rd
                recompute = _substitute_source(instr, rd, save_reg)
            block.append(("plain", instr))
            block.append(
                ("plain", Instruction(
                    recompute.opcode,
                    rd=check_reg,
                    rs1=recompute.rs1,
                    rs2=recompute.rs2,
                    imm=recompute.imm,
                ))
            )
            block.append(("check", bne(rd, check_reg, 0)))  # target fixed later
        else:
            block.append(("plain", instr))
        blocks.append(block)

    # Positions of each original instruction's block in the new program.
    new_pos = []
    cursor = 0
    for block in blocks:
        new_pos.append(cursor)
        cursor += len(block)
    handler_pos = cursor

    # Materialize with branch relocation.
    instructions = []
    for idx, block in enumerate(blocks):
        for kind, instr in block:
            pc = len(instructions)
            if kind == "check":
                instructions.append(
                    Instruction(
                        Opcode.BNE, rs1=instr.rs1, rs2=instr.rs2,
                        imm=handler_pos - (pc + 1),
                    )
                )
            elif instr.opcode in BRANCH_OPS:
                orig_target = idx + 1 + instr.imm
                if not 0 <= orig_target < len(blocks):
                    raise ValueError(
                        f"branch at {idx} targets {orig_target}, outside program"
                    )
                new_target = new_pos[orig_target]
                instructions.append(
                    Instruction(
                        instr.opcode, rd=instr.rd, rs1=instr.rs1, rs2=instr.rs2,
                        imm=new_target - (pc + 1),
                    )
                )
            else:
                instructions.append(instr)

    # Detection handler: set the flag and stop.
    instructions.append(lui(flag_reg, DETECTION_FLAG_VALUE))
    instructions.append(st(flag_reg, 0, DETECTION_FLAG_ADDR))
    instructions.append(halt())

    return Program(
        f"{program.name}_protected",
        instructions,
        output_range=program.output_range,
        initial_memory=program.initial_memory,
    )


@dataclass
class MeasuredProtection:
    """Measured cost and quality of one protected program."""

    program_name: str
    baseline_cycles: int
    protected_cycles: int
    sdc_rate_unprotected: float
    sdc_rate_protected: float
    detection_rate: float  # fraction of injections caught by the handler

    @property
    def slowdown(self):
        return self.protected_cycles / self.baseline_cycles

    @property
    def sdc_reduction(self):
        if self.sdc_rate_unprotected <= 0:
            return 0.0
        return 1.0 - self.sdc_rate_protected / self.sdc_rate_unprotected


def measure_protection(program, protected_indices, n_trials=300, seed=0):
    """Inject faults into baseline and protected versions; measure both.

    Injections target destination registers right after register-writing
    instructions execute (the fault window duplication covers).
    """
    protected_prog = protect_program(program, protected_indices)
    base_golden = GoldenTrace.record(program)
    prot_golden = GoldenTrace.record(protected_prog)
    if prot_golden.output != base_golden.output:
        raise AssertionError("protection transform changed program semantics")

    rng = np.random.default_rng(seed)

    def campaign(target, golden):
        # Injectable cycles: right after a register-writing instruction.
        windows = [
            (cycle + 1, target.instructions[pc].writes)
            for cycle, pc in enumerate(golden.pc_trace)
            if target.instructions[pc].writes is not None
        ]
        sdc = detected = 0
        for _ in range(n_trials):
            cycle, rd = windows[rng.integers(len(windows))]
            bit = int(rng.integers(0, 32))
            cpu = CPU(target, max_cycles=4 * golden.cycles + 1000)
            try:
                result = cpu.run(fault=(cycle, f"reg{rd}", bit))
            except (CrashError, TimeoutError):
                continue
            if result.memory.get(DETECTION_FLAG_ADDR, 0) == DETECTION_FLAG_VALUE:
                detected += 1
            elif result.output(program.output_range) != base_golden.output:
                sdc += 1
        return sdc / n_trials, detected / n_trials

    sdc_base, _ = campaign(program, base_golden)
    sdc_prot, det_prot = campaign(protected_prog, prot_golden)
    return MeasuredProtection(
        program_name=program.name,
        baseline_cycles=base_golden.cycles,
        protected_cycles=prot_golden.cycles,
        sdc_rate_unprotected=sdc_base,
        sdc_rate_protected=sdc_prot,
        detection_rate=det_prot,
    )
