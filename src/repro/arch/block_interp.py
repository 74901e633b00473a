"""Block-compiled suffix interpreter for fault-injection trials.

Every batched-engine trial (:mod:`repro.arch.batched_engine`) runs its
post-fault suffix here, and the scalar interpreter pays ~1 µs of Python
dispatch per simulated cycle, which would make those suffixes the
dominant cost of a campaign.  This module removes most of that
dispatch: it compiles a program's static control-flow graph into one
generated Python function whose basic blocks are straight-line code
over register *locals* (``r1`` … ``r15``; ``r0`` folds to the literal
``0``), re-dispatching on the PC only at block boundaries.

A run may start at any PC.  A fault lands mid-block (a register flip
at any golden cycle, a ``pc`` flip anywhere), so a one-time entry stub
before the dispatch loop runs the rest of the entry PC's block; the
loop itself dispatches over block leaders only.  An entry PC outside
the program is ``CRASHED``, as ``CPU.step``'s first fetch would be.

At the header of every loop that :mod:`repro.arch.loop_cert` can
certify, the runner checks the cycle count against that header's arm
(one entry of its ``arm`` tuple) and, once it is reached, returns
``AT_HEADER`` so the caller can try to prove the hang instead of
running it to the budget.

Semantics mirror :meth:`repro.arch.cpu.CPU.step` exactly — same
32-bit masking, signed-compare branches, copy-on-write memory overlay,
:data:`repro.arch.cpu.MEMORY_LIMIT` crashes, and halt behaviour.  One
situation is deliberately *not* handled inline: within one maximal
block length of ``max_cycles`` the runner returns ``NEAR_BUDGET``, and
the caller's scalar steps deliver the cycle-exact ``TimeoutError``.

The interpreter never checks golden reconvergence: a run classifies
from its final architectural state, which gives the same outcome as
the ``reference`` engine.  See ``docs/fi-engine.md``.
"""

from __future__ import annotations

from repro.arch.cpu import MEMORY_LIMIT
from repro.arch.isa import WORD_MASK, Opcode
from repro.arch.loop_cert import LoopCertificates

#: Status codes returned by a compiled runner (first tuple element).
HALTED, CRASHED, NEAR_BUDGET, AT_HEADER = range(4)

_TERMINATORS = (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.JMP, Opcode.HALT)
_BRANCHES = (Opcode.BEQ, Opcode.BNE, Opcode.BLT)

_REGS_TUPLE = "(0, " + ", ".join(f"r{i}" for i in range(1, 16)) + ")"


def _reg_read(idx):
    return "0" if idx == 0 else f"r{idx}"


class BlockProgram:
    """A program compiled to a block-dispatch interpreter function.

    Attributes
    ----------
    leaders:
        Frozenset of basic-block entry PCs, the dispatch loop's cases.
        :meth:`run` may be entered at any PC.
    loops:
        The program's :class:`repro.arch.loop_cert.LoopCertificates`.
    headers:
        Certifiable loop headers, in the order of the runner's ``arm``
        tuple.
    source:
        The generated Python source, kept for debugging.
    """

    def __init__(self, program):
        """Build the CFG and its loop analysis, then compile the runner."""
        instrs = program.instructions
        n = len(instrs)
        leaders = {0}
        for i, ins in enumerate(instrs):
            if ins.opcode in _TERMINATORS:
                if i + 1 < n:
                    leaders.add(i + 1)
                if ins.opcode is not Opcode.HALT:
                    target = i + 1 + ins.imm
                    if 0 <= target < n:
                        leaders.add(target)
        self.leaders = frozenset(leaders)
        self.loops = LoopCertificates(program, self.leaders)
        self.headers = sorted(self.loops.checks)
        blocks = {}
        max_len = 1
        for pc in range(n):
            lines, length = self._emit_block(program, pc, pc in leaders)
            blocks[pc] = lines
            max_len = max(max_len, length)

        near_budget = [
            f"if cycles + {max_len} >= max_cycles:",
            f"    return ({NEAR_BUDGET}, pc, cycles, {_REGS_TUPLE})",
        ]
        out = [
            "def _run(regs, overlay, base, pc, cycles, max_cycles, arm):",
            "    _, r1, r2, r3, r4, r5, r6, r7, "
            "r8, r9, r10, r11, r12, r13, r14, r15 = regs",
        ]
        if self.headers:
            out.append("    " + "".join(
                f"a{h}, " for h in self.headers) + "= arm")
        out += ["    ov = overlay", "    bget = base.get",
                "    if pc not in leaders:"]
        out += ["        " + line for line in near_budget]
        self._emit_dispatch(out, sorted(set(range(n)) - leaders), blocks,
                            "        ")
        out.append("    while True:")
        out += ["        " + line for line in near_budget]
        self._emit_dispatch(out, sorted(leaders), blocks, "        ")
        self.source = "\n".join(out)
        namespace = {"leaders": self.leaders}
        exec(self.source, namespace)  # noqa: S102 - static program codegen
        self.run = namespace["_run"]

    def _emit_dispatch(self, out, pcs, blocks, pad):
        """Binary if-tree over ``pcs``; leaves inline the blocks.

        Any other PC falls through to ``CRASHED``.
        """
        if len(pcs) <= 1:
            if pcs:
                out.append(f"{pad}if pc == {pcs[0]}:")
                out.extend(pad + "    " + line for line in blocks[pcs[0]])
                out.append(f"{pad}else:")
                pad += "    "
            out.append(f"{pad}return ({CRASHED}, pc, cycles, None)")
            return
        mid = len(pcs) // 2
        out.append(f"{pad}if pc < {pcs[mid]}:")
        self._emit_dispatch(out, pcs[:mid], blocks, pad + "    ")
        out.append(f"{pad}else:")
        self._emit_dispatch(out, pcs[mid:], blocks, pad + "    ")

    def _emit_block(self, program, start, in_loop):
        """Generate the code from ``start`` to its block's end.

        Returns ``(lines, cycle_length)``.  A block leader's code runs
        in the dispatch loop and ends with ``continue``; a mid-block
        entry's runs once in the entry stub and falls into the loop.
        """
        instrs = program.instructions
        n = len(instrs)
        lines = []
        if start in self.loops.checks:
            lines.append(f"if cycles >= a{start}:")
            lines.append(
                f"    return ({AT_HEADER}, {start}, cycles, {_REGS_TUPLE})"
            )
        i = start
        length = 0
        while True:
            ins = instrs[i]
            op = ins.opcode
            length += 1
            if op in _TERMINATORS:
                lines.append(f"cycles += {length}")
                if op is Opcode.HALT:
                    lines.append(f"return ({HALTED}, {i}, cycles, None)")
                elif op is Opcode.JMP:
                    self._emit_goto(lines, i + 1 + ins.imm, n, "", in_loop)
                else:
                    a = _reg_read(ins.rs1)
                    b = _reg_read(ins.rs2)
                    if op is Opcode.BEQ:
                        cond = f"{a} == {b}"
                    elif op is Opcode.BNE:
                        cond = f"{a} != {b}"
                    else:  # BLT: signed compare via bias trick
                        cond = f"({a} ^ 2147483648) < ({b} ^ 2147483648)"
                    lines.append(f"if {cond}:")
                    self._emit_goto(lines, i + 1 + ins.imm, n, "    ", in_loop)
                    lines.append("else:")
                    self._emit_goto(lines, i + 1, n, "    ", in_loop)
                return lines, length
            self._emit_straight(lines, ins)
            i += 1
            if i in self.leaders:  # fall through into the next block
                lines.append(f"cycles += {length}")
                self._emit_goto(lines, i, n, "", in_loop)
                return lines, length

    def _emit_goto(self, lines, target, n, pad, in_loop):
        if 0 <= target < n:
            lines.append(f"{pad}pc = {target}")
            if in_loop:
                lines.append(f"{pad}continue")
        else:  # the scalar loop would crash on the next fetch
            lines.append(f"{pad}return ({CRASHED}, {target}, cycles, None)")

    def _emit_straight(self, lines, ins):
        """Emit one non-terminator instruction as straight-line code."""
        op = ins.opcode
        rd = ins.rd
        a = _reg_read(ins.rs1)
        b = _reg_read(ins.rs2)
        mask = WORD_MASK
        if op is Opcode.NOP:
            return
        if op is Opcode.LD:
            imm = ins.imm & mask
            lines.append(f"a_ = ({a} + {imm}) & {mask}")
            lines.append(f"if a_ >= {MEMORY_LIMIT}:")
            lines.append(f"    return ({CRASHED}, a_, cycles, None)")
            if rd:
                lines.append(f"r{rd} = ov[a_] if a_ in ov else bget(a_, 0)")
            return
        if op is Opcode.ST:
            imm = ins.imm & mask
            lines.append(f"a_ = ({a} + {imm}) & {mask}")
            lines.append(f"if a_ >= {MEMORY_LIMIT}:")
            lines.append(f"    return ({CRASHED}, a_, cycles, None)")
            lines.append(f"ov[a_] = {b}")
            return
        if rd == 0:  # writes to r0 are dropped; nothing else can fault
            return
        if op is Opcode.ADD:
            expr = f"({a} + {b}) & {mask}"
        elif op is Opcode.SUB:
            expr = f"({a} - {b}) & {mask}"
        elif op is Opcode.MUL:
            expr = f"({a} * {b}) & {mask}"
        elif op is Opcode.AND:
            expr = f"{a} & {b}"
        elif op is Opcode.OR:
            expr = f"{a} | {b}"
        elif op is Opcode.XOR:
            expr = f"{a} ^ {b}"
        elif op is Opcode.SHL:
            expr = f"({a} << ({b} & 31)) & {mask}"
        elif op is Opcode.SHR:
            expr = f"{a} >> ({b} & 31)"
        elif op is Opcode.ADDI:
            expr = f"({a} + {ins.imm}) & {mask}"
        elif op is Opcode.LUI:
            expr = str(ins.imm & mask)
        else:  # pragma: no cover - Opcode is exhaustive
            raise ValueError(f"unexpected opcode {op}")
        lines.append(f"r{rd} = {expr}")
