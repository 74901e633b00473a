"""Instruction-level SDC-proneness prediction with a GAT (ref [24]).

A program is modelled as a heterogeneous graph: nodes are instructions,
edges are typed relations — data dependence (edge type 0), control-flow
adjacency (type 1), and memory-region sharing (type 2).  Node features
combine the opcode one-hot with operand statistics.  Labels come from a
per-instruction fault-injection campaign (dominant outcome when faulting
the instruction's destination as it executes).  The trained model is
*inductive*: it predicts outcome proneness for instructions of programs
never seen in training.
"""

from __future__ import annotations

import numpy as np

from repro.arch.fault_injection import FaultInjector, Outcome
from repro.arch.isa import BRANCH_OPS, MEMORY_OPS, Opcode
from repro.ml.gnn import Graph, GraphAttentionClassifier

# Node label classes, following [24]'s taxonomy.
LABELS = (Outcome.MASKED, Outcome.SDC, Outcome.CRASH, Outcome.HANG)
LABEL_INDEX = {o: i for i, o in enumerate(LABELS)}
_OPCODES = list(Opcode)


def instruction_node_features(instr):
    """Feature vector for one instruction node: opcode one-hot + structure."""
    onehot = [0.0] * len(_OPCODES)
    onehot[_OPCODES.index(instr.opcode)] = 1.0
    return onehot + [
        float(len(instr.reads)),
        1.0 if instr.writes is not None else 0.0,
        float(instr.opcode in BRANCH_OPS),
        float(instr.opcode in MEMORY_OPS),
        instr.imm / 64.0,
    ]


def build_instruction_graph(program, labels=None):
    """Program -> heterogeneous instruction graph.

    Edge types: 0 = data dependence (def -> use, nearest previous def),
    1 = sequential control flow plus branch targets, 2 = shared memory
    base register between memory instructions.
    """
    n = len(program.instructions)
    X = np.asarray([instruction_node_features(i) for i in program.instructions])
    edges = []
    types = []
    last_def = {}
    mem_users = {}
    for idx, instr in enumerate(program.instructions):
        # control-flow adjacency
        if idx + 1 < n and instr.opcode != Opcode.HALT:
            edges.append((idx, idx + 1))
            types.append(1)
        if instr.opcode in BRANCH_OPS:
            target = idx + 1 + instr.imm
            if 0 <= target < n:
                edges.append((idx, target))
                types.append(1)
        # data dependences
        for r in instr.reads:
            if r in last_def:
                edges.append((last_def[r], idx))
                types.append(0)
        if instr.writes is not None:
            last_def[instr.writes] = idx
        # memory-region sharing via base register
        if instr.opcode in MEMORY_OPS:
            base = instr.rs1
            for other in mem_users.get(base, []):
                edges.append((other, idx))
                types.append(2)
            mem_users.setdefault(base, []).append(idx)
    return Graph(X, edges, types, y=labels)


def label_instructions(program, n_trials_per_instruction=40, seed=0):
    """Per-instruction dominant fault outcome via targeted injection.

    For each instruction we inject into its destination register (or PC
    for branches) right after cycles where the golden run executed it.
    The label is the most frequent non-masked outcome, or MASKED when the
    majority of injections vanish.
    """
    injector = FaultInjector(program)
    rng = np.random.default_rng(seed)
    cycles_by_pc = injector.golden.cycles_by_pc()
    # Draw every executed instruction's trials first, then run them all
    # as one sweep; instruction ``executed[k]`` owns trial slice ``k``.
    executed = []
    coords = []
    for idx, instr in enumerate(program.instructions):
        cycles = cycles_by_pc.get(idx)
        if not cycles:
            continue  # dead code stays MASKED
        if instr.writes is not None:
            element = f"reg{instr.writes}"
        elif instr.opcode in BRANCH_OPS or instr.opcode == Opcode.HALT:
            element = "pc"
        else:
            element = "ir"
        executed.append(idx)
        for _ in range(n_trials_per_instruction):
            # Inject right after this instruction executed so its result
            # (or the control decision) is what gets corrupted.
            cycle = int(rng.choice(cycles)) + 1
            bit = int(rng.integers(0, 32))
            coords.append((cycle, element, bit))
    records = injector.inject_many(coords)
    labels = [LABEL_INDEX[Outcome.MASKED]] * len(program.instructions)
    n = n_trials_per_instruction
    for k, idx in enumerate(executed):
        counts = {o: 0 for o in LABELS}
        for record in records[k * n:(k + 1) * n]:
            outcome = record.outcome
            if outcome == Outcome.SYMPTOM:
                outcome = Outcome.MASKED
            counts[outcome] += 1
        failures = {o: c for o, c in counts.items() if o != Outcome.MASKED}
        total_failures = sum(failures.values())
        if total_failures >= 0.25 * n:
            dominant = max(failures, key=failures.get)
        else:
            dominant = Outcome.MASKED
        labels[idx] = LABEL_INDEX[dominant]
    return np.asarray(labels)


class SDCPredictor:
    """Inductive GAT classifier over instruction graphs."""

    def __init__(self, hidden=16, n_epochs=150, lr=0.05, seed=0,
                 n_trials_per_instruction=30):
        n_features = len(_OPCODES) + 5
        self.n_trials_per_instruction = n_trials_per_instruction
        self.seed = seed
        self._gat = GraphAttentionClassifier(
            hidden=hidden,
            n_classes=len(LABELS),
            n_edge_types=3,
            lr=lr,
            n_epochs=n_epochs,
            seed=seed,
        )
        self._n_features = n_features

    def fit(self, programs):
        """Label each training program by injection, then train the GAT."""
        graphs = []
        for i, program in enumerate(programs):
            labels = label_instructions(
                program,
                n_trials_per_instruction=self.n_trials_per_instruction,
                seed=self.seed + i,
            )
            graphs.append(build_instruction_graph(program, labels=labels))
        self._gat.fit(graphs)
        return self

    def predict(self, program):
        """Predicted outcome class index per instruction of an unseen program."""
        graph = build_instruction_graph(program)
        return self._gat.predict(graph)

    def predict_proba(self, program):
        graph = build_instruction_graph(program)
        return self._gat.predict_proba(graph)

    def sdc_prone_instructions(self, program, threshold=0.3):
        """Indices of instructions whose predicted SDC probability exceeds
        ``threshold`` — the replication candidates."""
        probs = self.predict_proba(program)
        sdc_col = LABEL_INDEX[Outcome.SDC]
        return [i for i, p in enumerate(probs[:, sdc_col]) if p > threshold]
