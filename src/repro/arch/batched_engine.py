"""Trial-vectorized fault-injection engine (batched suffix replay).

A trial never re-executes the fault-free prefix: one golden recording
pass stores each cycle's architectural effects, so golden state at any
cycle is a cheap fast-forward from power-on.  This module makes the
post-fault suffix cheap by replaying *many* trials' suffixes together.
The key observation: until its control flow diverges, a faulty run
executes exactly the golden PC trace — only register and memory
*values* differ.  So a whole batch of
trials can march down the golden trace in lockstep, as columns
("lanes") of one ``(16, L)`` numpy register array, with each
instruction applied to every lane at once (per-opcode masked updates,
the same move :func:`repro.core.simulate_runs_batch` uses for the
Sec. V Monte Carlo kernels).

Per-lane memory is a *delta dict* against the running golden memory:
an entry exists only where the lane's memory differs from golden at the
current cycle.  A lane retires in one of two ways:

* **halt** — lanes still in lockstep at ``HALT`` classify from their
  delta-patched output words (a flip whose effect died out runs the
  golden suffix and halts here with the golden output);
* **divergence** — a lane whose branch direction differs from the
  golden trace (or whose load/store address crashes) leaves lockstep;
  branch divergences finish on the block-compiled interpreter
  (:mod:`repro.arch.block_interp`), crashes classify immediately.

Lanes *activate* at their injection cycle (before it, their state is
golden by definition, so no work is simulated), and retire by
swap-remove, so the active width tracks the genuinely-divergent
population — usually a handful of SDC lanes — rather than the batch
size.  Each sweep starts at power-on (zero registers, no stores, cycle
0); whenever the batch is empty it jumps forward to the next injection
cycle by applying the precomputed per-cycle effect arrays to golden
state instead of executing instructions.

``pc``/``ir`` trials leave the trace at once, so they never become
lanes: each starts from the golden state the sweep holds at its cycle,
steps to a block leader and finishes on the block interpreter.

Equivalence contract: identical :class:`InjectionRecord` outcomes to
the ``reference`` engine for every coordinate — pinned by
``tests/test_arch_fi_engine.py`` and re-checked on a sample of every
``perfbench`` ``fi-uniform`` campaign.  See
``docs/fi-engine.md`` for the full design walkthrough.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.arch.block_interp import AT_HEADER, CRASHED, HALTED, BlockProgram
from repro.arch.cpu import CPU, CPUSnapshot, CrashError, MEMORY_LIMIT, STATE_ELEMENTS

# Safe despite the mutual relationship: fault_injection only imports
# this module lazily, from inside FaultInjector._batched_engine().
from repro.arch.fault_injection import Outcome
from repro.arch.isa import ARITH_OPS, N_REGISTERS, WORD_MASK, Opcode

U64 = np.uint64
_MASK = U64(WORD_MASK)
_SIGN = U64(0x80000000)  # bias for unsigned-compare BLT
_SHIFT = U64(31)
_MEM_LIMIT = U64(MEMORY_LIMIT)

# Dispatch categories for the vectorized interpreter.  Branches with
# imm == 0 and JMP cannot diverge from the golden trace and touch no
# lane state, so they compile to _NOP.
_NOP, _ARITH, _ADDI, _LUI, _LD, _ST, _BRANCH, _HALT = range(8)

_ARITH_SUB = {
    Opcode.ADD: 0, Opcode.SUB: 1, Opcode.MUL: 2, Opcode.AND: 3,
    Opcode.OR: 4, Opcode.XOR: 5, Opcode.SHL: 6, Opcode.SHR: 7,
}
_BRANCH_SUB = {Opcode.BEQ: 0, Opcode.BNE: 1, Opcode.BLT: 2}


class BatchedEngine:
    """Vectorized lockstep executor over one injector's golden trace.

    Built lazily, once per injector object, by
    :meth:`repro.arch.fault_injection.FaultInjector.inject_many`; one
    golden recording pass precomputes, per cycle, the decoded
    instruction and the golden run's architectural effects — written
    register/value, load/store address, store value, branch direction —
    which the sweep uses both to fast-forward golden state and to keep
    per-lane memory deltas canonical.
    """

    def __init__(self, injector):
        """Precompute per-cycle decoded ops and golden effects."""
        self._inj = injector
        program = injector.program
        n = injector.golden_cycles
        instructions = program.instructions

        # Plain lists, not numpy arrays: the sweep reads them one cycle
        # at a time, and a list index costs a fraction of an array's.
        ops = []
        g_written = [-1] * n
        g_value = [0] * n
        g_ldaddr = [-1] * n
        g_staddr = [-1] * n
        g_stval = [0] * n
        g_taken = [False] * n

        cpu = CPU(program, max_cycles=n + 1)
        c = 0
        with obs.span("arch.golden", program=program.name):
            while not cpu.halted:
                instr = instructions[cpu.pc]
                op = instr.opcode
                if op in ARITH_OPS:
                    ops.append((_ARITH, instr.rd, instr.rs1, instr.rs2,
                                _ARITH_SUB[op]))
                elif op is Opcode.ADDI:
                    ops.append((_ADDI, instr.rd, instr.rs1,
                                U64(instr.imm & WORD_MASK)))
                elif op is Opcode.LUI:
                    ops.append((_LUI, instr.rd, U64(instr.imm & WORD_MASK)))
                elif op is Opcode.LD:
                    ops.append((_LD, instr.rd, instr.rs1,
                                U64(instr.imm & WORD_MASK)))
                    g_ldaddr[c] = (cpu.registers[instr.rs1] + instr.imm) & WORD_MASK
                elif op is Opcode.ST:
                    ops.append((_ST, instr.rs1, instr.rs2,
                                U64(instr.imm & WORD_MASK)))
                    g_staddr[c] = (cpu.registers[instr.rs1] + instr.imm) & WORD_MASK
                    g_stval[c] = cpu.registers[instr.rs2]
                elif op in _BRANCH_SUB and instr.imm != 0:
                    ops.append((_BRANCH, instr.rs1, instr.rs2, instr.imm,
                                _BRANCH_SUB[op]))
                elif op is Opcode.HALT:
                    ops.append((_HALT,))
                else:  # NOP, JMP, zero-offset branches: lane state untouched
                    ops.append((_NOP,))
                prev_pc = cpu.pc
                cpu.step()
                written = instr.writes
                if written:  # writes to r0 are dropped: golden value unchanged
                    g_written[c] = written
                    g_value[c] = cpu.registers[written]
                if op in _BRANCH_SUB:
                    g_taken[c] = cpu.pc != prev_pc + 1
                c += 1

        self._ops = ops
        self._g_written = g_written
        self._g_value = g_value
        self._g_ldaddr = g_ldaddr
        self._g_staddr = g_staddr
        self._g_stval = g_stval
        self._g_taken = g_taken
        self._mem_base = program.initial_memory
        self._trace = injector.golden_pc_trace
        self._block = BlockProgram(program)
        # A lane is first offered to a loop's hang certificate once it
        # has run as long as the whole golden run.
        self._arm0 = (n,) * len(self._block.headers)
        self._counts = [0, 0, 0]  # hangs proven, cycles skipped, block cycles

    def run(self, lanes):
        """Execute trial lanes and return ``[(key, Outcome), ...]``.

        ``lanes`` is a list of ``(key, cycle, element_index, bit)`` with
        ``0 <= cycle < golden_cycles`` and ``element_index`` an index
        into :data:`repro.arch.cpu.STATE_ELEMENTS`; keys are returned
        untouched so the caller can restore submission order.
        """
        inj = self._inj
        n_cycles = inj.golden_cycles
        ops = self._ops
        g_written = self._g_written
        g_value = self._g_value
        g_staddr = self._g_staddr
        g_stval = self._g_stval
        g_taken = self._g_taken
        mem_base = self._mem_base
        out_start, out_len = inj.program.output_range

        lanes = sorted(lanes, key=lambda lane: lane[1])
        total = len(lanes)
        regs = np.zeros((N_REGISTERS, total), U64)
        deltas = [None] * total
        keys = [None] * total
        results = []

        # Golden state at cycle ``c``, from power-on: the register file
        # and the memory overlay of golden stores.
        golden = np.zeros(N_REGISTERS, U64)
        g_overlay = {}
        c = 0
        k = 0  # active lane count (columns [0:k) of ``regs``)
        p = 0  # next lane to activate
        n_dirty = 0  # active lanes with a non-empty memory delta

        m_groups = m_replayed = m_off = 0
        m_vec_cycles = m_lane_cycles = m_div = 0

        def golden_mem(addr):
            """Golden memory at *addr*: overlay first, then the base image."""
            if addr in g_overlay:
                return g_overlay[addr]
            return mem_base.get(addr, 0)

        def lane_output(delta):
            """The lane's program output, reading through its memory delta."""
            if not delta:
                return inj.golden_output
            return tuple(
                delta.get(out_start + i, golden_mem(out_start + i))
                for i in range(out_len)
            )

        def retire(j):
            """Swap-remove lane *j* from the active prefix ``[:k]``."""
            nonlocal k, n_dirty
            k -= 1
            if deltas[j]:
                n_dirty -= 1
            if j != k:
                regs[:, j] = regs[:, k]
                deltas[j] = deltas[k]
                keys[j] = keys[k]
            deltas[k] = None

        def diverge(j, pc, cycles):
            """Classify lane *j* after it leaves the golden trace.

            Both divergent branch directions are block leaders by CFG
            construction, so the block-compiled interpreter finishes the
            suffix.
            """
            overlay = dict(g_overlay)
            overlay.update(deltas[j])
            return self._finish_block(
                [int(v) for v in regs[:, j]], overlay, pc, cycles
            )

        while p < total or k:
            if k == 0:
                # Batch is empty: jump straight to the next injection
                # cycle, fast-forwarding golden state via the
                # precomputed effect arrays — no instruction executes.
                target = lanes[p][1]
                m_groups += 1
                m_replayed += target - c
                last = {}  # register -> its last golden write in the gap
                for cc in range(c, target):
                    written = g_written[cc]
                    if written >= 0:
                        last[written] = g_value[cc]
                    staddr = g_staddr[cc]
                    if staddr >= 0:
                        g_overlay[staddr] = g_stval[cc]
                for written, value in last.items():
                    golden[written] = value
                c = target

            while p < total and lanes[p][1] == c:
                key, _, reg, bit = lanes[p]
                p += 1
                if reg >= N_REGISTERS:  # pc/ir: leaves the trace at once
                    m_off += 1
                    results.append((key, self._run_scalar(
                        golden, g_overlay, c, STATE_ELEMENTS[reg], bit
                    )))
                    continue
                regs[:, k] = golden
                deltas[k] = {}
                keys[k] = key
                if reg:  # r0 is hardwired to zero: flip masked by design
                    regs[reg, k] ^= U64(1 << bit)
                k += 1
            if k == 0:  # only pc/ir trials started at this cycle
                continue

            op = ops[c]
            cat = op[0]
            if cat == _ARITH:
                _, rd, rs1, rs2, sub = op
                if rd:
                    a = regs[rs1, :k]
                    b = regs[rs2, :k]
                    if sub == 0:
                        value = (a + b) & _MASK
                    elif sub == 1:
                        value = (a - b) & _MASK
                    elif sub == 2:
                        value = (a * b) & _MASK
                    elif sub == 3:
                        value = a & b
                    elif sub == 4:
                        value = a | b
                    elif sub == 5:
                        value = a ^ b
                    elif sub == 6:
                        value = (a << (b & _SHIFT)) & _MASK
                    else:
                        value = a >> (b & _SHIFT)
                    regs[rd, :k] = value
            elif cat == _ADDI:
                _, rd, rs1, imm = op
                if rd:
                    regs[rd, :k] = (regs[rs1, :k] + imm) & _MASK
            elif cat == _LUI:
                _, rd, imm = op
                if rd:
                    regs[rd, :k] = imm
            elif cat == _LD:
                _, rd, rs1, imm = op
                addr = (regs[rs1, :k] + imm) & _MASK
                bad = addr >= _MEM_LIMIT
                if bad.any():
                    for j in np.flatnonzero(bad)[::-1]:
                        results.append((keys[j], Outcome.CRASH))
                        retire(j)
                    if k == 0:
                        written = g_written[c]
                        if written >= 0:
                            golden[written] = g_value[c]
                        c += 1
                        continue
                    addr = (regs[rs1, :k] + imm) & _MASK
                if rd:
                    g_addr = self._g_ldaddr[c]
                    g_val = g_value[c]
                    if n_dirty == 0:
                        hit = addr == U64(g_addr)
                        if hit.all():
                            regs[rd, :k] = g_val
                        else:
                            values = np.full(k, g_val, U64)
                            for j in np.flatnonzero(~hit):
                                values[j] = golden_mem(int(addr[j]))
                            regs[rd, :k] = values
                    else:
                        # The golden load reads g_val at g_addr, so only
                        # a lane's own entry or another address needs a
                        # lookup.
                        regs[rd, :k] = [
                            delta[a_j] if a_j in delta
                            else g_val if a_j == g_addr
                            else golden_mem(a_j)
                            for a_j, delta in zip(addr.tolist(), deltas)
                        ]
            elif cat == _ST:
                _, rs1, rs2, imm = op
                addr = (regs[rs1, :k] + imm) & _MASK
                bad = addr >= _MEM_LIMIT
                if bad.any():
                    for j in np.flatnonzero(bad)[::-1]:
                        results.append((keys[j], Outcome.CRASH))
                        retire(j)
                    if k == 0:
                        g_overlay[g_staddr[c]] = g_stval[c]
                        c += 1
                        continue
                    addr = (regs[rs1, :k] + imm) & _MASK
                value = regs[rs2, :k]
                g_addr = g_staddr[c]
                g_val = g_stval[c]
                dirty = (addr != U64(g_addr)) | (value != U64(g_val))
                if n_dirty or dirty.any():
                    # Keep deltas canonical: an entry exists iff the
                    # lane's word differs from golden *after* both
                    # stores land this cycle.
                    for j in range(k):
                        delta = deltas[j]
                        if not dirty[j] and not delta:
                            continue
                        was_dirty = bool(delta)
                        l_addr = int(addr[j])
                        l_val = int(value[j])
                        if l_addr == g_addr:
                            if l_val != g_val:
                                delta[l_addr] = l_val
                            else:
                                delta.pop(l_addr, None)
                        else:
                            if l_val != golden_mem(l_addr):
                                delta[l_addr] = l_val
                            else:
                                delta.pop(l_addr, None)
                            # Golden stores at g_addr; the lane does not,
                            # so its (unchanged) word there may now differ.
                            prev = (
                                delta[g_addr] if g_addr in delta
                                else golden_mem(g_addr)
                            )
                            if prev != g_val:
                                delta[g_addr] = prev
                            else:
                                delta.pop(g_addr, None)
                        n_dirty += bool(delta) - was_dirty
                g_overlay[g_addr] = g_val
            elif cat == _BRANCH:
                _, rs1, rs2, imm, sub = op
                a = regs[rs1, :k]
                b = regs[rs2, :k]
                if sub == 0:
                    cond = a == b
                elif sub == 1:
                    cond = a != b
                else:  # BLT: signed compare via bias trick
                    cond = (a ^ _SIGN) < (b ^ _SIGN)
                taken = g_taken[c]
                div = ~cond if taken else cond
                if div.any():
                    # Divergent lanes take the non-golden direction.
                    pc = self._trace[c] + 1 + (0 if taken else imm)
                    for j in np.flatnonzero(div)[::-1]:
                        m_div += 1
                        results.append((keys[j], diverge(j, pc, c + 1)))
                        retire(j)
            elif cat == _HALT:
                for j in range(k):
                    results.append((
                        keys[j],
                        inj._classify(lane_output(deltas[j]), n_cycles),
                    ))
                    deltas[j] = None
                k = 0
                n_dirty = 0
                c += 1
                continue
            # NOP/JMP/zero-offset branches: nothing to do.

            written = g_written[c]
            if written >= 0:
                golden[written] = g_value[c]
            m_vec_cycles += 1
            m_lane_cycles += k
            c += 1

        obs.inc("arch.fi.engine.batch.groups", m_groups)
        obs.inc("arch.fi.engine.batch.lanes", total - m_off)
        if m_off:
            obs.inc("arch.fi.engine.batch.offtrace_trials", m_off)
        obs.inc("arch.fi.engine.batch.vector_cycles", m_vec_cycles)
        obs.inc("arch.fi.engine.batch.lane_cycles", m_lane_cycles)
        obs.inc("arch.fi.engine.batch.divergences", m_div)
        obs.inc("arch.fi.engine.cycles_replayed", m_replayed)
        counts = self._counts
        if counts[0]:
            obs.inc("arch.fi.engine.hangs_proven", counts[0])
            obs.inc("arch.fi.engine.hang_cycles_skipped", counts[1])
        if counts[2]:
            obs.inc("arch.fi.engine.block_cycles", counts[2])
        counts[:] = [0, 0, 0]
        return results

    def _run_scalar(self, golden, g_overlay, cycle, element, bit):
        """Run one ``pc``/``ir`` trial from the golden state at ``cycle``.

        A pc flip can land at a non-leader and an ir fault corrupts the
        *next* fetch, so the trial steps until the fault is consumed and
        the PC sits on a block leader (at most one block), then hands off
        to :class:`BlockProgram`.
        """
        cpu = self._inj._trial_cpu
        cpu.restore(CPUSnapshot(
            registers=tuple(golden.tolist()), pc=self._trace[cycle],
            cycles=cycle, halted=False, mem_overlay=g_overlay, ir_fault=0,
        ))
        cpu.flip_bit(element, bit)
        outcome = self._step(self._block.leaders)
        if outcome is None:
            outcome = self._finish_block(
                list(cpu.registers), cpu._mem_overlay, cpu.pc, cpu.cycles
            )
        return outcome

    def _finish_block(self, regs_list, overlay, pc, cycles):
        """Finish an off-trace trial via the compiled block runner.

        At a certifiable loop header past its arm, the runner stops and
        the loop's hang certificate (:mod:`repro.arch.loop_cert`) runs:
        if no exit or crash can come before the budget, the trial is
        ``HANG`` at once; otherwise the header is re-armed where the
        first possible exit leaves too few iterations to reach the
        budget, and the runner resumes.  A near-budget (or
        off-dispatch) return bounces to :meth:`CPU.step` for at most
        one maximal block, so the cycle-exact timeout and
        halt-at-budget semantics are the reference engine's.
        """
        inj = self._inj
        block = self._block
        max_cycles = inj.max_cycles
        counts = self._counts
        arm = self._arm0
        start = cycles
        while True:
            status, pc, cycles, out_regs = block.run(
                regs_list, overlay, self._mem_base, pc, cycles, max_cycles, arm
            )
            if status != AT_HEADER:
                break
            check, min_len = block.loops.checks[pc]
            limit = -((cycles - max_cycles) // min_len)
            first = check(out_regs, limit)
            if first >= limit:
                counts[0] += 1
                counts[1] += max_cycles - cycles
                counts[2] += cycles - start
                return Outcome.HANG
            arm = list(arm)
            arm[block.headers.index(pc)] = max_cycles - first * min_len
            regs_list = out_regs
        counts[2] += cycles - start
        if status == HALTED:
            return inj._classify(self._output_from(overlay), cycles)
        if status == CRASHED:
            return Outcome.CRASH
        obs.inc("arch.fi.engine.batch.scalar_tails")
        inj._trial_cpu.restore(CPUSnapshot(
            registers=tuple(out_regs), pc=pc, cycles=cycles,
            halted=False, mem_overlay=overlay, ir_fault=0,
        ))
        return self._step()

    def _step(self, leaders=frozenset()):
        """:meth:`CPU.step` the trial CPU to halt, crash or timeout.

        Returns ``None`` instead once the PC sits on one of ``leaders``
        with no ``ir`` fault pending.
        """
        inj = self._inj
        cpu = inj._trial_cpu
        try:
            while not cpu.halted:
                if cpu.pc in leaders and not cpu._ir_fault:
                    return None
                cpu.step()
        except CrashError:
            return Outcome.CRASH
        except TimeoutError:
            return Outcome.HANG
        return inj._classify(cpu.output(inj.program.output_range), cpu.cycles)

    def _output_from(self, overlay):
        """Read the program's output words through ``overlay``."""
        start, length = self._inj.program.output_range
        base = self._mem_base
        return tuple(
            overlay.get(start + i, base.get(start + i, 0))
            for i in range(length)
        )
