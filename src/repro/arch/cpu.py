"""CPU simulator with injectable state elements.

The machine executes one instruction per cycle.  Its *state elements* —
the fault-injection targets, standing in for the flip-flops of a real
pipeline — are:

* the 16 x 32-bit register file (``"reg<i>"``),
* the program counter (``"pc"``),
* the fetched-instruction latch (``"ir"``), whose bits encode opcode and
  operand fields as a packed word, so a flip there corrupts the
  instruction in flight (mimicking pipeline-latch faults).

Faults are injected by flipping a chosen bit of a chosen element at a
chosen cycle, mid-execution.  Outcomes are classified by the caller
(:mod:`repro.arch.fault_injection`).

Data memory is a copy-on-write overlay over the program's (immutable)
initial image: stores land in a small per-run overlay dict, loads fall
through to the initial image.  That makes :meth:`CPU.snapshot` /
:meth:`CPU.restore` — the primitive behind the batched fault-injection
engine's scalar ``pc``/``ir`` starts and tails —
O(registers + stores so far) instead of O(total memory footprint).

:meth:`CPU.step` is the one scalar interpreter: the ``reference`` engine,
the one golden recording pass (:mod:`repro.arch.golden`) and the batched
engine's scalar stretches all use it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.isa import (
    ARITH_OPS,
    N_REGISTERS,
    WORD_MASK,
    Instruction,
    Opcode,
)

MEMORY_LIMIT = 1 << 20  # addresses above this are architectural crashes

#: Injectable state elements, in :meth:`CPU.state_elements` order.
STATE_ELEMENTS = tuple(f"reg{i}" for i in range(N_REGISTERS)) + ("pc", "ir")

_OPCODES = list(Opcode)
# pack_instruction sits on the fault-injection hot path (every "ir"
# fault re-packs the instruction stream), so the opcode lookup is a
# precomputed dict rather than an O(n) list scan.
_OPCODE_INDEX = {op: i for i, op in enumerate(_OPCODES)}


class CrashError(Exception):
    """Architectural crash: invalid opcode, bad PC, or bad memory access."""


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    halted: bool
    cycles: int
    memory: dict
    registers: list

    def output(self, output_range):
        """The words of ``output_range`` (``(start, length)``) in final memory."""
        start, length = output_range
        return tuple(self.memory.get(start + i, 0) for i in range(length))


def _signed(value):
    value &= WORD_MASK
    return value - (1 << 32) if value & 0x80000000 else value


def pack_instruction(instr):
    """Pack an instruction into a 32-bit word (opcode|rd|rs1|rs2|imm16)."""
    op_idx = _OPCODE_INDEX[instr.opcode]
    imm16 = instr.imm & 0xFFFF
    return (
        (op_idx & 0x1F) << 27
        | (instr.rd & 0xF) << 23
        | (instr.rs1 & 0xF) << 19
        | (instr.rs2 & 0xF) << 15
        | imm16
    )


def unpack_instruction(word):
    """Inverse of :func:`pack_instruction`; raises CrashError on bad opcode."""
    op_idx = (word >> 27) & 0x1F
    if op_idx >= len(_OPCODES):
        raise CrashError(f"invalid opcode index {op_idx}")
    imm = word & 0xFFFF
    if imm & 0x8000:
        imm -= 1 << 16
    return Instruction(
        opcode=_OPCODES[op_idx],
        rd=(word >> 23) & 0xF,
        rs1=(word >> 19) & 0xF,
        rs2=(word >> 15) & 0xF,
        imm=imm,
    )


@dataclass(frozen=True)
class CPUSnapshot:
    """Full architectural state at a cycle boundary (between steps).

    ``mem_overlay`` holds only the words written since reset — the
    copy-on-write delta against the program's initial memory image —
    so snapshots stay cheap for memory-heavy workloads.
    """

    registers: tuple
    pc: int
    cycles: int
    halted: bool
    mem_overlay: dict
    ir_fault: int


class CPU:
    """Functional simulator with named, bit-addressable state elements."""

    def __init__(self, program, max_cycles=100_000):
        self.program = program
        self.max_cycles = max_cycles
        # Read-only base image; all writes go to the per-run overlay.
        self._mem_base = program.initial_memory
        self.reset()

    def reset(self):
        """Return to the power-on state: zeroed registers, pc 0, no stores."""
        self.registers = [0] * N_REGISTERS
        self.pc = 0
        self._mem_overlay = {}
        self.cycles = 0
        self.halted = False
        # A pending IR fault set by flip_bit("ir", ...) but never consumed
        # (e.g. the run crashed before the next fetch) must not leak into
        # the next run of a reused CPU object.
        self._ir_fault = 0

    @property
    def memory(self):
        """Merged data-memory view (initial image + overlay).

        A fresh dict each access: mutate memory through execution (ST)
        only, never through this view.
        """
        merged = dict(self._mem_base)
        merged.update(self._mem_overlay)
        return merged

    def read_memory(self, addr):
        """Current value of one data-memory word."""
        overlay = self._mem_overlay
        if addr in overlay:
            return overlay[addr]
        return self._mem_base.get(addr, 0)

    def output(self, output_range):
        """The program's declared output words in the current state."""
        start, length = output_range
        return tuple(self.read_memory(start + i) for i in range(length))

    # -- checkpointing (the batched-engine surface) ----------------------------
    def snapshot(self):
        """Capture full architectural state between steps (O(state delta))."""
        return CPUSnapshot(
            registers=tuple(self.registers),
            pc=self.pc,
            cycles=self.cycles,
            halted=self.halted,
            mem_overlay=dict(self._mem_overlay),
            ir_fault=self._ir_fault,
        )

    def restore(self, snap):
        """Rewind to a snapshot taken on a CPU running the same program."""
        self.registers = list(snap.registers)
        self.pc = snap.pc
        self.cycles = snap.cycles
        self.halted = snap.halted
        self._mem_overlay = dict(snap.mem_overlay)
        self._ir_fault = snap.ir_fault

    # -- state-element access (the fault-injection surface) -------------------
    def state_elements(self):
        """Names of all injectable state elements."""
        return list(STATE_ELEMENTS)

    def flip_bit(self, element, bit):
        """Flip one bit of a state element *now* (between cycles).

        Flipping ``"ir"`` corrupts the next fetched instruction word.
        """
        if not 0 <= bit < 32:
            raise ValueError("bit index out of range")
        if element.startswith("reg"):
            idx = int(element[3:])
            if idx == 0:
                return  # r0 is hardwired to zero: fault is masked by design
            self.registers[idx] ^= 1 << bit
            self.registers[idx] &= WORD_MASK
        elif element == "pc":
            self.pc ^= 1 << bit
        elif element == "ir":
            self._ir_fault ^= 1 << bit
        else:
            raise ValueError(f"unknown state element {element!r}")

    # -- execution -------------------------------------------------------------
    def step(self):
        """Execute one cycle; raises CrashError on architectural violations."""
        if self.halted:
            return
        if not 0 <= self.pc < len(self.program.instructions):
            raise CrashError(f"pc {self.pc} outside program")
        instr = self.program.instructions[self.pc]
        ir_fault = self._ir_fault
        if ir_fault:
            instr = unpack_instruction(pack_instruction(instr) ^ ir_fault)
            self._ir_fault = 0
        self._execute(instr)
        self.cycles += 1
        if self.cycles >= self.max_cycles and not self.halted:
            raise TimeoutError(f"exceeded {self.max_cycles} cycles")

    def _read(self, reg):
        return 0 if reg == 0 else self.registers[reg]

    def _write(self, reg, value):
        if reg != 0:
            self.registers[reg] = value & WORD_MASK

    def _execute(self, instr):
        op = instr.opcode
        next_pc = self.pc + 1
        if op == Opcode.NOP:
            pass
        elif op in ARITH_OPS:
            a = self._read(instr.rs1)
            b = self._read(instr.rs2)
            if op == Opcode.ADD:
                value = a + b
            elif op == Opcode.SUB:
                value = a - b
            elif op == Opcode.MUL:
                value = a * b
            elif op == Opcode.AND:
                value = a & b
            elif op == Opcode.OR:
                value = a | b
            elif op == Opcode.XOR:
                value = a ^ b
            elif op == Opcode.SHL:
                value = a << (b & 31)
            else:  # SHR
                value = a >> (b & 31)
            self._write(instr.rd, value)
        elif op == Opcode.ADDI:
            self._write(instr.rd, self._read(instr.rs1) + instr.imm)
        elif op == Opcode.LUI:
            self._write(instr.rd, instr.imm)
        elif op == Opcode.LD:
            addr = (self._read(instr.rs1) + instr.imm) & WORD_MASK
            if addr >= MEMORY_LIMIT:
                raise CrashError(f"load from invalid address {addr}")
            self._write(instr.rd, self.read_memory(addr))
        elif op == Opcode.ST:
            addr = (self._read(instr.rs1) + instr.imm) & WORD_MASK
            if addr >= MEMORY_LIMIT:
                raise CrashError(f"store to invalid address {addr}")
            self._mem_overlay[addr] = self._read(instr.rs2) & WORD_MASK
        elif op == Opcode.BEQ:
            if self._read(instr.rs1) == self._read(instr.rs2):
                next_pc = self.pc + 1 + instr.imm
        elif op == Opcode.BNE:
            if self._read(instr.rs1) != self._read(instr.rs2):
                next_pc = self.pc + 1 + instr.imm
        elif op == Opcode.BLT:
            if _signed(self._read(instr.rs1)) < _signed(self._read(instr.rs2)):
                next_pc = self.pc + 1 + instr.imm
        elif op == Opcode.JMP:
            next_pc = self.pc + 1 + instr.imm
        elif op == Opcode.HALT:
            self.halted = True
            return
        else:  # pragma: no cover - enum is exhaustive
            raise CrashError(f"unimplemented opcode {op}")
        self.pc = next_pc

    def run(self, fault=None):
        """Run to completion.

        Parameters
        ----------
        fault:
            Optional ``(cycle, element, bit)`` triple; the bit is flipped
            just *before* the given cycle executes.

        Returns
        -------
        :class:`ExecutionResult`

        Raises
        ------
        CrashError, TimeoutError
            Propagated to the caller for outcome classification.
        """
        self.reset()
        fault_cycle = -1
        if fault is not None:
            fault_cycle, element, bit = fault
        while not self.halted:
            if fault is not None and self.cycles == fault_cycle:
                self.flip_bit(element, bit)
                fault = None  # single-event upset
            self.step()
        return ExecutionResult(
            halted=True,
            cycles=self.cycles,
            memory=self.memory,
            registers=list(self.registers),
        )
