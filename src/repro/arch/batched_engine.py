"""Per-trial suffix engine for fault injection (block-compiled replay).

A trial never re-executes the fault-free prefix: the injector's golden
trace (:mod:`repro.arch.golden`) holds each cycle's architectural
effects (the written register and value, the store address and value),
so golden state at any cycle is a cheap fast-forward from power-on.
One sweep sorts a batch's trials by injection cycle and walks golden
state forward once; at each trial's cycle it applies the fault to
golden state and runs the post-fault suffix on the block interpreter
(:mod:`repro.arch.block_interp`), which accepts any entry PC:

* **register flip** — the golden registers with one bit flipped
  (``r0`` stays zero), entered at the golden PC;
* **pc flip** — golden state entered at the flipped PC; a PC outside
  the program is ``CRASH`` at once, as ``CPU.step``'s first fetch
  would be;
* **ir flip** — one :meth:`CPU.step` consumes the corrupted
  instruction, then the block runner finishes the suffix.

Equivalence contract: identical :class:`InjectionRecord` outcomes to
the ``reference`` engine for every coordinate — pinned by
``tests/test_arch_fi_engine.py`` and re-checked on a sample of every
``perfbench`` ``fi-uniform`` campaign.  See
``docs/fi-engine.md`` for the full design walkthrough.
"""

from __future__ import annotations

from operator import itemgetter

from repro import obs
from repro.arch.block_interp import AT_HEADER, CRASHED, HALTED, BlockProgram
from repro.arch.cpu import CPUSnapshot, CrashError, STATE_ELEMENTS

# Safe despite the mutual relationship: fault_injection only imports
# this module lazily, from inside FaultInjector._batched_engine().
from repro.arch.fault_injection import Outcome
from repro.arch.isa import N_REGISTERS

_PC = STATE_ELEMENTS.index("pc")


class BatchedEngine:
    """Runs a batch of trials from one injector's golden trace.

    Built lazily, once per injector object, by
    :meth:`repro.arch.fault_injection.FaultInjector.inject_many`; it
    compiles the program's blocks and steps nothing: each sweep
    fast-forwards golden state with the per-cycle effects of the
    injector's :class:`repro.arch.golden.GoldenTrace`.
    """

    def __init__(self, injector):
        """Compile the program's blocks; golden effects come from the trace."""
        self._inj = injector
        self._golden = injector.golden
        self._mem_base = injector.program.initial_memory
        self._block = BlockProgram(injector.program)
        # A trial is first offered to a loop's hang certificate once it
        # has run as long as the whole golden run.
        self._arm0 = (injector.golden_cycles,) * len(self._block.headers)
        self._counts = [0, 0, 0]  # hangs proven, cycles skipped, block cycles

    def run(self, lanes):
        """Execute trials and return ``[(key, Outcome), ...]``.

        ``lanes`` is a list of ``(key, cycle, element_index, bit)`` with
        ``0 <= cycle < golden_cycles`` and ``element_index`` an index
        into :data:`repro.arch.cpu.STATE_ELEMENTS`; keys are returned
        untouched so the caller can restore submission order.
        """
        g = self._golden
        g_written, g_value, g_staddr, g_stval = g.written, g.value, g.staddr, g.stval
        trace = g.pc_trace
        finish = self._finish_block
        n_instructions = len(self._inj.program.instructions)

        # Golden state at cycle ``c``, from power-on: the register file
        # and the memory overlay of golden stores.
        golden = [0] * N_REGISTERS
        g_overlay = {}
        c = 0
        results = []
        n_lanes = n_outside = 0
        for key, cycle, element, bit in sorted(lanes, key=itemgetter(1)):
            while c < cycle:
                written = g_written[c]
                if written >= 0:
                    golden[written] = g_value[c]
                staddr = g_staddr[c]
                if staddr >= 0:
                    g_overlay[staddr] = g_stval[c]
                c += 1
            # The runner reads the register list and writes the overlay.
            if element < N_REGISTERS:
                n_lanes += 1
                regs = golden
                if element:  # r0 is hardwired to zero: flip masked by design
                    regs = golden.copy()
                    regs[element] ^= 1 << bit
                outcome = finish(regs, dict(g_overlay), trace[c], c)
            elif element == _PC:
                pc = trace[c] ^ (1 << bit)
                if pc < n_instructions:
                    outcome = finish(golden, dict(g_overlay), pc, c)
                else:
                    n_outside += 1
                    outcome = Outcome.CRASH
            else:
                outcome = self._run_ir(golden, g_overlay, c, bit)
            results.append((key, outcome))

        obs.inc("arch.fi.engine.batch.lanes", n_lanes)
        if len(results) > n_lanes:
            obs.inc("arch.fi.engine.batch.offtrace_trials", len(results) - n_lanes)
        if n_outside:
            obs.inc("arch.fi.engine.pc_outside", n_outside)
        counts = self._counts
        if counts[0]:
            obs.inc("arch.fi.engine.hangs_proven", counts[0])
            obs.inc("arch.fi.engine.hang_cycles_skipped", counts[1])
        if counts[2]:
            obs.inc("arch.fi.engine.block_cycles", counts[2])
        counts[:] = [0, 0, 0]
        return results

    def _run_ir(self, golden, g_overlay, cycle, bit):
        """Run one ``ir`` trial from the golden state at ``cycle``.

        The fault corrupts the next fetch, so one :meth:`CPU.step`
        executes the corrupted instruction; the block runner finishes
        the suffix from wherever it left the PC.
        """
        inj = self._inj
        cpu = inj._trial_cpu
        cpu.restore(CPUSnapshot(
            registers=golden, pc=self._golden.pc_trace[cycle], cycles=cycle,
            halted=False, mem_overlay=g_overlay, ir_fault=1 << bit,
        ))
        try:
            cpu.step()
        except CrashError:
            return Outcome.CRASH
        if cpu.halted:
            return inj._classify(self._output_from(cpu._mem_overlay), cpu.cycles)
        return self._finish_block(
            cpu.registers, cpu._mem_overlay, cpu.pc, cpu.cycles
        )

    def _finish_block(self, regs_list, overlay, pc, cycles):
        """Finish a trial from ``pc`` via the compiled block runner.

        At a certifiable loop header past its arm, the runner stops and
        the loop's hang certificate (:mod:`repro.arch.loop_cert`) runs:
        if no exit or crash can come before the budget, the trial is
        ``HANG`` at once; otherwise the header is re-armed where the
        first possible exit leaves too few iterations to reach the
        budget, and the runner resumes.  A near-budget return bounces to
        :meth:`CPU.step` for at most one maximal block, so the
        cycle-exact timeout and halt-at-budget semantics are the
        reference engine's.
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
        cpu = inj._trial_cpu
        cpu.restore(CPUSnapshot(
            registers=out_regs, pc=pc, cycles=cycles,
            halted=False, mem_overlay=overlay, ir_fault=0,
        ))
        try:
            while not cpu.halted:
                cpu.step()
        except CrashError:
            return Outcome.CRASH
        except TimeoutError:
            return Outcome.HANG
        return inj._classify(self._output_from(cpu._mem_overlay), cpu.cycles)

    def _output_from(self, overlay):
        """Read the program's output words through ``overlay``."""
        start, length = self._inj.program.output_range
        base = self._mem_base
        return tuple(
            overlay.get(start + i, base.get(start + i, 0))
            for i in range(length)
        )
