"""Exact hang certificates for the natural loops of a program.

A fault-injection trial that hangs would otherwise run in the
block interpreter (:mod:`repro.arch.block_interp`) until the cycle
budget.  This module proves most such hangs in closed form instead.

**Static analysis** (once per program).  The control-flow graph's
natural loops are found from dominators.  For each loop one forward
symbolic pass over one iteration expresses every register as a
polynomial over the registers' values at the loop header (``h1`` …
``h15``), modulo 2^32; a load gives "unknown", and so does an ``and``,
``or``, ``xor``, ``shr`` or variable shift of non-constant operands.
Paths join per register: equal polynomials stay, different ones become
unknown.  A register whose value on every back edge is ``h_r`` is
*invariant*; one whose value is ``h_r + c`` with ``c`` built from
invariants is an *induction variable* with step ``c``.  The loop's
*sites* are every memory address and the operands of every *exit
branch* (a branch with a successor outside the loop, or outside the
program).  Branches with both successors inside the loop are ignored.
Substituting ``h_r + c·t`` for each induction variable, every site must
be affine in the iteration count ``t``, or the loop declines.

An inner loop is summarized when it has one exit edge, taken when its
operands are equal (``beq`` taken or ``bne`` not taken), on a block that
runs every iteration.  Its trip count ``N`` is the first ``u`` at which
the exit operands meet, a linear congruence solved at attempt time; its
start and bound must not change with the outer ``t``.  After it, the
compared register holds the bound and every other register it writes
is unknown; its sites are checked over ``(t, u) ∈ [0, T) × [0, N]``.
Summaries nest.

**Runtime check** (the generated per-loop functions in
:attr:`LoopCertificates.checks`).  Given concrete header registers, each
site becomes
``α + β·t mod 2^32``, and a closed form gives the first iteration at
which an exit branch could be taken or an address could reach
:data:`repro.arch.cpu.MEMORY_LIMIT`.  If none can before
``T = ceil((max_cycles - cycles) / min_len)`` iterations, where
``min_len`` is the loop's shortest header-to-header path in cycles, the
trial executes at least ``max_cycles - cycles`` more instructions with no
``HALT`` and no crash — exactly when :meth:`repro.arch.cpu.CPU.step`
raises ``TimeoutError``, so the trial is ``HANG``.  See
``docs/fi-engine.md``.
"""

from __future__ import annotations

import heapq

from repro.arch.cpu import MEMORY_LIMIT
from repro.arch.isa import WORD_MASK, Opcode

_MOD = 1 << 32
_HALF = 1 << 31
#: Iterations a two-sided signed compare is scanned before declining.
_SCAN = 64
_NEGATE = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt"}
_COND = {Opcode.BEQ: "eq", Opcode.BNE: "ne", Opcode.BLT: "lt"}
_ENDS = (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.JMP, Opcode.HALT)
_T = "t"


class _Decline(Exception):
    """The loop's shape is outside what the certificate can decide."""


# -- polynomials over Z/2^32: {monomial (sorted symbol tuple): coeff} ------
def _const(value):
    value &= WORD_MASK
    return {(): value} if value else {}


def _sym(name):
    return {(name,): 1}


def _add(a, b, sign=1):
    out = dict(a)
    for mono, coef in b.items():
        value = (out.get(mono, 0) + sign * coef) & WORD_MASK
        if value:
            out[mono] = value
        else:
            out.pop(mono, None)
    return out


def _mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(sorted(ma + mb))
            value = (out.get(mono, 0) + ca * cb) & WORD_MASK
            if value:
                out[mono] = value
            else:
                out.pop(mono, None)
    return out


def _is_const(p):
    return all(not mono for mono in p)


def _subst(p, mapping):
    """``p`` with symbols replaced by polynomials (unknown if any is None)."""
    out = {}
    for mono, coef in p.items():
        term = _const(coef)
        for name in mono:
            value = mapping.get(name, _sym(name))
            if value is None:
                return None
            term = _mul(term, value)
        out = _add(out, term)
    return out


def _split(p, names):
    """Split affine ``p`` into ``{name or 1: coefficient polynomial}``.

    Raises :class:`_Decline` if a monomial holds two of ``names``.
    """
    parts = {}
    for mono, coef in p.items():
        hits = [s for s in mono if s in names]
        if len(hits) > 1:
            raise _Decline("not affine")
        key = hits[0] if hits else 1
        rest = tuple(s for s in mono if s not in hits)
        parts[key] = _add(parts.get(key, {}), {rest: coef})
    return parts


def _moving(p):
    """Whether ``p`` depends on an iteration count (``t`` or a ``u``)."""
    return any(name[0] in "tu" for mono in p for name in mono)


def _code(p):
    """Python source evaluating polynomial ``p`` over header regs ``r``."""
    terms = []
    for mono, coef in sorted(p.items()):
        sign = "-" if coef >= _HALF else "+"
        coef = _MOD - coef if coef >= _HALF else coef
        factors = ([str(coef)] if coef != 1 or not mono else []) + [
            f"r[{name[1:]}]" for name in mono
        ]
        terms.append(f"{sign} {'*'.join(factors)}")
    if not terms:
        return "0"
    if len(terms) == 1 and terms[0][0] == "+" and "*" not in terms[0]:
        return terms[0][2:]  # a constant or one register: already a word
    return f"({' '.join(terms).lstrip('+ ')}) & {WORD_MASK}"


# -- closed-form first-fire helpers (called by the generated checks) -------
def _signed(x):
    return x - _MOD if x >= _HALF else x


def _first_in(x0, d, lo, hi, limit):
    """First ``t < limit`` with ``(x0 + d·t) mod 2^32`` in ``[lo, hi)``.

    Returns ``limit`` if there is none.  A step wider than the interval
    could jump over it, so such sequences are scanned for at most
    :data:`_SCAN` iterations and otherwise reported as firing there.
    """
    if lo <= x0 < hi:
        return 0
    if d == 0 or lo >= hi:
        return limit
    step = _signed(d)
    if 0 < step <= hi - lo:
        t = -(-((lo - x0) % _MOD) // step)
    elif 0 < -step <= hi - lo:
        t = -(-((x0 - hi + 1) % _MOD) // -step)
    else:
        for t in range(1, min(limit, _SCAN)):
            if lo <= (x0 + d * t) % _MOD < hi:
                return t
        return min(limit, _SCAN)
    return min(t, limit)


def _first_zero(x0, d, limit):
    """First ``t < limit`` with ``x0 + d·t ≡ 0 (mod 2^32)``, else ``limit``."""
    t = _trip(x0, d)
    return limit if t is None else min(t, limit)


def _trip(x0, d):
    """Least ``t >= 0`` with ``x0 + d·t ≡ 0 (mod 2^32)``; None if never."""
    if x0 == 0:
        return 0
    if d == 0:
        return None
    g = d & -d
    if x0 % g:
        return None
    m = _MOD // g
    return (-(x0 // g) * pow(d // g, -1, m)) % m


def _first_lt(a0, a1, b0, b1, when_lt, limit):
    """First ``t`` at which signed ``a(t) < b(t)`` equals ``when_lt``."""
    a0 ^= _HALF  # biased: signed order becomes unsigned order
    b0 ^= _HALF
    if a1 == 0 and b1 == 0:
        return 0 if (a0 < b0) == when_lt else limit
    if b1 == 0:
        lo, hi = (0, b0) if when_lt else (b0, _MOD)
        return _first_in(a0, a1, lo, hi, limit)
    if a1 == 0:
        lo, hi = (a0 + 1, _MOD) if when_lt else (0, a0 + 1)
        return _first_in(b0, b1, lo, hi, limit)
    for t in range(min(limit, _SCAN)):
        if (((a0 + a1 * t) % _MOD) < ((b0 + b1 * t) % _MOD)) == when_lt:
            return t
    return min(limit, _SCAN)


def _first_crash(alpha, beta, terms, limit):
    """First ``t`` at which ``α + β·t + Σ γ_k·u_k`` could leave memory.

    ``terms`` holds ``(γ_k, N_k)`` with ``u_k ∈ [0, N_k]``.  Over every
    ``u`` the signed sum stays in ``[lo, hi] + β·t``; while that range
    is inside ``[0, MEMORY_LIMIT)`` the modular address equals it, so no
    access crashes.  With no terms this is exact.
    """
    lo = hi = alpha
    for gamma, n in terms:
        span = _signed(gamma) * n
        if span < 0:
            lo += span
        else:
            hi += span
    if lo < 0 or hi >= MEMORY_LIMIT:
        return 0
    step = _signed(beta)
    if step > 0:
        t = -(-(MEMORY_LIMIT - hi) // step)
    elif step < 0:
        t = lo // -step + 1
    else:
        return limit
    return min(t, limit)


class _Loop:
    """One natural loop (back edges merged per header)."""

    def __init__(self, header, body, latches):
        self.header = header
        self.body = body
        self.latches = latches
        self.children = []
        self.steps = None  # per register: None variant, {} invariant, step
        self.exit = None  # summarizable: (rs1, rs2, target)
        self.facts = None  # (exits, sites) of one pass from the header


class LoopCertificates:
    """Static loop analysis of one program plus its compiled checks.

    Attributes
    ----------
    checks:
        ``{header: (check, min_len)}`` for every loop that certifies.
        ``check(regs, limit)`` takes the 16 register values at the
        header and returns the first iteration ``< limit`` at which an
        exit could be taken or an access could crash, or ``limit``.
    source:
        The generated checks' Python source, kept for debugging.
    """

    def __init__(self, program, leaders):
        """Find the loops of ``program`` and compile their checks."""
        self._instrs = program.instructions
        self._blocks = {}  # leader -> (last index, successor pcs)
        for leader in leaders:
            i = leader
            while self._instrs[i].opcode not in _ENDS and i + 1 not in leaders:
                i += 1
            ins = self._instrs[i]
            if ins.opcode is Opcode.HALT:
                succs = []
            elif ins.opcode is Opcode.JMP:
                succs = [i + 1 + ins.imm]
            elif ins.opcode in _COND:
                succs = sorted({i + 1 + ins.imm, i + 1})
            else:
                succs = [i + 1]
            self._blocks[leader] = (i, succs)
        min_lens = {}
        out = []
        # Inner loops first: an outer loop's pass reuses their summaries.
        for loop in sorted(self._find_loops(), key=lambda lp: len(lp.body)):
            try:
                self._classify(loop)
                out.extend(self._compile(loop))
            except _Decline:
                continue
            min_lens[loop.header] = self._min_len(loop)
        self.source = "\n".join(out)
        namespace = {
            "_first_in": _first_in, "_first_zero": _first_zero,
            "_first_lt": _first_lt, "_first_crash": _first_crash,
            "_trip": _trip,
        }
        exec(self.source, namespace)  # noqa: S102 - static program codegen
        self.checks = {
            h: (namespace[f"_cert_{h}"], min_len)
            for h, min_len in min_lens.items()
        }

    # -- CFG structure -----------------------------------------------------
    def _succs(self, node):
        return self._blocks[node][1]

    def _find_loops(self):
        """Natural loops from dominators over blocks reachable from 0."""
        order, seen, stack = [], {0}, [0]
        while stack:
            node = stack.pop()
            order.append(node)
            for s in self._succs(node):
                if s in self._blocks and s not in seen:
                    seen.add(s)
                    stack.append(s)
        preds = {node: [] for node in order}
        for node in order:
            for s in self._succs(node):
                if s in preds:
                    preds[s].append(node)
        dom = {node: set(order) for node in order}
        dom[0] = {0}
        changed = True
        while changed:
            changed = False
            for node in order[1:]:
                new = set.intersection(*(dom[p] for p in preds[node])) | {node}
                if new != dom[node]:
                    dom[node] = new
                    changed = True
        self._dom = dom
        loops = {}
        for node in order:
            for h in self._succs(node):
                if h in dom[node]:  # back edge node -> h
                    body = {h}
                    work = [node]
                    while work:
                        x = work.pop()
                        if x not in body:
                            body.add(x)
                            work.extend(preds[x])
                    loop = loops.setdefault(h, _Loop(h, set(), set()))
                    loop.body |= body
                    loop.latches.add(node)
        for loop in loops.values():
            inner = [o for o in loops.values()
                     if o is not loop and o.header in loop.body]
            loop.children = [
                o for o in inner
                if not any(o is not p and o.header in p.body for p in inner)
            ]
        return list(loops.values())

    def _order(self, loop):
        """Topological order of ``loop``'s body with children collapsed."""
        child_of = {}
        for child in loop.children:
            for node in child.body:
                child_of[node] = child
        state, order = {}, []

        def visit(node):
            state[node] = 1
            child = child_of.get(node)
            if child is not None:
                if node != child.header or child.exit is None:
                    raise _Decline("inner loop not summarizable")
                succs = [child.exit[2]]
            else:
                succs = self._succs(node)
            for s in succs:
                if s == loop.header or s not in loop.body:
                    continue
                if state.get(s) == 1:
                    raise _Decline("irreducible cycle")
                if s not in state:
                    visit(s)
            state[node] = 2
            order.append(node)

        visit(loop.header)
        order.reverse()
        return order, child_of

    def _min_len(self, loop):
        """Fewest cycles on any header-to-header path (Dijkstra)."""
        dist = {loop.header: 0}
        heap = [(0, loop.header)]
        best = None
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, d) or (best is not None and d >= best):
                continue
            last, succs = self._blocks[node]
            d2 = d + last - node + 1
            for s in succs:
                if s == loop.header:
                    best = d2 if best is None else min(best, d2)
                elif s in loop.body and d2 < dist.get(s, d2 + 1):
                    dist[s] = d2
                    heapq.heappush(heap, (d2, s))
        return best

    # -- the symbolic pass ---------------------------------------------------
    def _iterate(self, loop, state):
        """One symbolic iteration from header ``state``.

        Returns ``(latch_states, exits, sites)``: the register state on
        each back edge, the exit branches as ``(cond, a, b)`` ("exit when
        ``a cond b``"), and the memory addresses as ``(poly, bounds)``,
        ``bounds`` holding ``(u_symbol, trip)`` per enclosing inner loop.
        """
        order, child_of = self._order(loop)
        pending = {loop.header: [state]}
        latches, exits, sites = [], [], []
        for node in order:
            states = pending.pop(node, None)
            if not states:
                continue
            regs = [
                s0 if all(s == s0 for s in column) else None
                for column in zip(*states) for s0 in (column[0],)
            ]
            child = child_of.get(node)
            if child is not None:
                regs = self._summarize(child, regs, sites)
                edges = [(child.exit[2], None)]
            else:
                edges = self._exec(node, regs, sites)
            for target, cond in edges:
                if target == loop.header:
                    latches.append(regs)
                elif target in loop.body:
                    pending.setdefault(target, []).append(regs)
                elif cond is None:  # only branches leave a loop
                    raise _Decline("unconditional exit")
                else:
                    exits.append(cond)
        return latches, exits, sites

    def _exec(self, leader, regs, sites):
        """Run one block symbolically; returns its ``(target, cond)`` edges."""
        last, succs = self._blocks[leader]
        for i in range(leader, last + 1):
            ins = self._instrs[i]
            op = ins.opcode
            a, b = regs[ins.rs1], regs[ins.rs2]
            if op in (Opcode.LD, Opcode.ST):
                if a is None:
                    raise _Decline("unknown address")
                sites.append((_add(a, _const(ins.imm)), ()))
                value = None
            elif op is Opcode.ADDI:
                value = None if a is None else _add(a, _const(ins.imm))
            elif op is Opcode.LUI:
                value = _const(ins.imm)
            elif op in (Opcode.ADD, Opcode.SUB, Opcode.MUL):
                if a is None or b is None:
                    value = None
                elif op is Opcode.MUL:
                    value = _mul(a, b)
                else:
                    value = _add(a, b, 1 if op is Opcode.ADD else -1)
            elif op is Opcode.SHL:
                value = None
                if a is not None and b is not None and _is_const(b):
                    value = _mul(a, _const(1 << (b.get((), 0) & 31)))
            elif op in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHR):
                value = None
                if a is not None and b is not None and _is_const(a) and _is_const(b):
                    x, y = a.get((), 0), b.get((), 0)
                    value = _const(
                        x & y if op is Opcode.AND else x | y if op is Opcode.OR
                        else x ^ y if op is Opcode.XOR else x >> (y & 31)
                    )
            else:
                continue  # NOP and terminators write no register
            if ins.writes:
                regs[ins.rd] = value
        ins = self._instrs[last]
        if ins.opcode not in _COND or len(succs) == 1:
            return [(s, None) for s in succs]
        a, b = regs[ins.rs1], regs[ins.rs2]
        cond = _COND[ins.opcode]
        taken, fall = last + 1 + ins.imm, last + 1
        return [(taken, (cond, a, b)), (fall, (_NEGATE[cond], a, b))]

    def _summarize(self, child, entry, sites):
        """Registers after ``child`` runs from ``entry``; adds its sites."""
        u = f"u{child.header}"
        mapping = {f"h{r}": entry[r] for r in range(1, 16)}
        header = [{}] + [None] * 15
        for r in range(1, 16):
            step = child.steps[r]
            if step is None or entry[r] is None:
                continue
            if not step:
                header[r] = entry[r]
                continue
            step = _subst(step, mapping)
            if step is not None:
                header[r] = _add(entry[r], _mul(step, _sym(u)))
        _, exits, inner = self._iterate(child, header)
        ((cond, a, b),) = exits
        if a is None or b is None:
            raise _Decline("unknown inner exit")
        parts = _split(_add(a, b, -1), {u})
        trip = (parts.get(1, {}), parts.get(u, {}))
        if _moving(trip[0]) or _moving(trip[1]):
            raise _Decline("inner trip count varies")
        for poly, bounds in inner:
            sites.append((poly, bounds + ((u, trip),)))
        out = list(entry)
        written = {
            self._instrs[i].rd for node in child.body
            for i in range(node, self._blocks[node][0] + 1)
            if self._instrs[i].writes
        }
        rs1, rs2, _ = child.exit
        for r in written:
            out[r] = None
        if rs1 in written and rs2 not in written:
            out[rs1] = entry[rs2]
        elif rs2 in written and rs1 not in written:
            out[rs2] = entry[rs1]
        return out

    def _classify(self, loop):
        """Induction variables, and the summary an outer loop would use."""
        state = [{}] + [_sym(f"h{r}") for r in range(1, 16)]
        latches, exits, sites = self._iterate(loop, state)
        if not latches:
            raise _Decline("no back edge reached")
        steps = [{}] + [None] * 15
        invariant = {
            r for r in range(1, 16)
            if all(regs[r] == state[r] for regs in latches)
        }
        allowed = {f"h{r}" for r in invariant}
        for r in range(1, 16):
            if r in invariant:
                steps[r] = {}
                continue
            diffs = [
                None if regs[r] is None else _add(regs[r], state[r], -1)
                for regs in latches
            ]
            d0 = diffs[0]
            if d0 is not None and all(d == d0 for d in diffs) and all(
                s in allowed for mono in d0 for s in mono
            ):
                steps[r] = d0
        loop.steps = steps
        loop.facts = (exits, sites)
        exit_edges = [
            (node, s) for node in loop.body for s in self._succs(node)
            if s not in loop.body
        ]
        if len(exit_edges) == 1:
            node, target = exit_edges[0]
            last = self._blocks[node][0]
            ins = self._instrs[last]
            cond = _COND.get(ins.opcode)  # the exit edge is taken or falls through
            when = cond if target != last + 1 else _NEGATE.get(cond)
            if when == "eq" and all(node in self._dom[x] for x in loop.latches):
                loop.exit = (ins.rs1, ins.rs2, target)

    def _compile(self, loop):
        """Source of ``_cert_<header>(r, f)`` for a certifiable loop."""
        exits, sites = loop.facts
        mapping = {}
        for r in range(1, 16):
            step = loop.steps[r]
            if step is None:
                mapping[f"h{r}"] = None
            elif step:
                mapping[f"h{r}"] = _add(_sym(f"h{r}"), _mul(step, _sym(_T)))

        def coeffs(p, names=()):
            """Code for ``p``'s constant part, then its coefficients of
            ``names``, each a function of the header registers alone."""
            p = None if p is None else _subst(p, mapping)
            if p is None:
                raise _Decline("unknown site")
            parts = _split(p, set(names))
            if any(_moving(q) for q in parts.values()):
                raise _Decline("site not affine")
            return [_code(parts.get(key, {})) for key in (1, *names)]

        checks, trips = [], {}
        for cond, a, b in exits:
            if cond in ("eq", "ne") and a is not None and b is not None:
                x0, x1 = coeffs(_add(a, b, -1), [_T])
                checks.append(
                    f"f = _first_zero({x0}, {x1}, f)" if cond == "eq"
                    else f"f = _first_in({x0}, {x1}, 1, {_MOD}, f)"
                )
            else:
                (a0, a1), (b0, b1) = coeffs(a, [_T]), coeffs(b, [_T])
                checks.append(
                    f"f = _first_lt({a0}, {a1}, {b0}, {b1}, {cond == 'lt'}, f)"
                )
        seen = set()
        for poly, bounds in sites:
            key = (tuple(sorted(poly.items())), repr(bounds))
            if key in seen:
                continue
            seen.add(key)
            alpha, beta, *gammas = coeffs(poly, [_T] + [u for u, _ in bounds])
            terms = ""
            for (u, (d0, d1)), gamma in zip(bounds, gammas):
                trips.setdefault(u, coeffs(d0) + coeffs(d1))
                terms += f"({gamma}, n_{u}), "
            checks.append(f"f = _first_crash({alpha}, {beta}, ({terms}), f)")
        lines = [f"def _cert_{loop.header}(r, f):"]
        for u, (d0, d1) in trips.items():
            lines += [f"    n_{u} = _trip({d0}, {d1})",
                      f"    if n_{u} is None:", "        return 0"]
        lines += ["    " + line for line in checks] + ["    return f"]
        return lines
