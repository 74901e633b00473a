"""IPAS-style SVM-guided selective instruction replication (ref [27]).

Full software replication duplicates every instruction (plus a compare),
roughly doubling execution time.  IPAS instead: (1) runs random fault
injections to label instructions vulnerable (their corruption causes
silent output corruption) or safe, (2) trains an SVM on per-instruction
features, (3) replicates only predicted-vulnerable instructions.  The
paper's headline: up to 47 % less slowdown at similar SDC coverage.

Here, "replicating" an instruction protects it: an injection into its
destination at its execution cycle is detected by the duplicate-and-
compare and recovered (the fault is nullified).  Coverage is the fraction
of otherwise-SDC-causing injections that the protection catches;
slowdown is the instruction-count overhead of the duplicates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.arch.fault_injection import FaultInjector, Outcome
from repro.arch.isa import Opcode
from repro.arch.sdc_prediction import instruction_node_features
from repro.ml.preprocessing import StandardScaler
from repro.ml.svm import LinearSVC

REPLICATION_OVERHEAD_PER_INSTRUCTION = 2.0  # duplicate + compare


def _instruction_features(program, idx, exec_counts):
    """IPAS-style static + dynamic features for one instruction."""
    instr = program.instructions[idx]
    base = instruction_node_features(instr)
    return base + [
        idx / len(program.instructions),
        float(exec_counts.get(idx, 0)),
    ]


@dataclass
class ReplicationOutcome:
    """Protection quality and cost of one replication strategy."""

    strategy: str
    protected_fraction: float  # fraction of (executed) instructions replicated
    coverage: float  # fraction of SDC-causing faults detected/recovered
    slowdown: float  # relative execution-time overhead vs unprotected

    def slowdown_reduction_vs(self, other):
        """How much of ``other``'s slowdown this strategy avoids."""
        if other.slowdown <= 0:
            return 0.0
        return 1.0 - self.slowdown / other.slowdown


class ReplicationStudy:
    """Label, train, and evaluate selective replication on a workload set."""

    def __init__(self, programs, n_trials_per_instruction=30, seed=0):
        self.programs = list(programs)
        self.n_trials = n_trials_per_instruction
        self.seed = seed
        self._injectors = {p.name: FaultInjector(p) for p in self.programs}
        self._exec_counts = {}
        self._sdc_trials = {}  # program -> list[(instr_idx, cycle, bit)] causing SDC
        self._labels = {}
        for p_idx, program in enumerate(self.programs):
            self._profile(program, seed + p_idx)

    def _profile(self, program, seed):
        """Fault-inject each executed instruction's destination; record SDCs."""
        injector = self._injectors[program.name]
        rng = np.random.default_rng(seed)
        cycles_by_pc = injector.golden.cycles_by_pc()
        self._exec_counts[program.name] = {pc: len(c) for pc, c in cycles_by_pc.items()}
        # Draw every instruction's trials first, then run them all as one
        # sweep; ``trials[j]`` is the instruction index of coordinate j.
        trials = []
        coords = []
        for idx, instr in enumerate(program.instructions):
            cycles = cycles_by_pc.get(idx)
            if not cycles or instr.writes is None:
                continue
            element = f"reg{instr.writes}"
            for _ in range(self.n_trials):
                cycle = int(rng.choice(cycles)) + 1
                bit = int(rng.integers(0, 32))
                trials.append(idx)
                coords.append((cycle, element, bit))
        sdc_trials = [
            (idx, record.cycle, record.bit)
            for idx, record in zip(trials, injector.inject_many(coords))
            if record.outcome == Outcome.SDC
        ]
        sdc_counts = Counter(idx for idx, _, _ in sdc_trials)
        labels = np.zeros(len(program.instructions), dtype=int)
        for idx, count in sdc_counts.items():
            if count / self.n_trials > 0.15:
                labels[idx] = 1  # vulnerable
        self._sdc_trials[program.name] = sdc_trials
        self._labels[program.name] = labels

    # -- SVM training ----------------------------------------------------------
    def _dataset(self, programs):
        X = []
        y = []
        meta = []
        for program in programs:
            counts = self._exec_counts[program.name]
            for idx in range(len(program.instructions)):
                X.append(_instruction_features(program, idx, counts))
                y.append(self._labels[program.name][idx])
                meta.append((program.name, idx))
        return np.asarray(X), np.asarray(y), meta

    def train_svm(self, train_programs=None):
        """Fit the vulnerability SVM; returns (svm, scaler)."""
        train_programs = train_programs or self.programs
        X, y, _ = self._dataset(train_programs)
        if len(np.unique(y)) < 2:
            raise ValueError("training labels are degenerate; raise n_trials")
        scaler = StandardScaler().fit(X)
        svm = LinearSVC(C=2.0, n_epochs=80, seed=self.seed)
        svm.fit(scaler.transform(X), y)
        return svm, scaler

    # -- evaluation --------------------------------------------------------------
    def _evaluate_protection(self, program, protected_set, strategy):
        """Coverage/slowdown when ``protected_set`` instructions are replicated."""
        sdc_trials = self._sdc_trials[program.name]
        if sdc_trials:
            caught = sum(1 for idx, _, _ in sdc_trials if idx in protected_set)
            coverage = caught / len(sdc_trials)
        else:
            coverage = 1.0
        counts = self._exec_counts[program.name]
        total_dyn = sum(counts.values())
        protected_dyn = sum(counts.get(i, 0) for i in protected_set)
        slowdown = REPLICATION_OVERHEAD_PER_INSTRUCTION * protected_dyn / max(total_dyn, 1)
        executed = [i for i in range(len(program.instructions)) if counts.get(i, 0)]
        frac = len([i for i in protected_set if i in executed]) / max(len(executed), 1)
        return ReplicationOutcome(
            strategy=strategy,
            protected_fraction=frac,
            coverage=coverage,
            slowdown=slowdown,
        )

    def evaluate_full_replication(self, program):
        """Baseline: every register-writing instruction is replicated."""
        protected = {
            i for i, instr in enumerate(program.instructions) if instr.writes is not None
        }
        return self._evaluate_protection(program, protected, "full")

    def evaluate_ipas(self, program, svm=None, scaler=None):
        """IPAS: replicate only SVM-predicted-vulnerable instructions."""
        if svm is None or scaler is None:
            svm, scaler = self.train_svm()
        counts = self._exec_counts[program.name]
        X = np.asarray(
            [
                _instruction_features(program, idx, counts)
                for idx in range(len(program.instructions))
            ]
        )
        pred = svm.predict(scaler.transform(X))
        protected = {i for i, flag in enumerate(pred) if flag == 1}
        return self._evaluate_protection(program, protected, "ipas")

    def evaluate_heuristic(self, program):
        """Baseline selective replication: protect the static backward slice
        of every store (the output-producing chain), a common heuristic.

        Over-protects address computations and loop bookkeeping — the
        pessimism IPAS's learned classifier prunes away.
        """
        instrs = program.instructions
        protected = set()
        wanted_regs = set()
        for instr in instrs:
            if instr.opcode == Opcode.ST:
                wanted_regs.update(instr.reads)
        changed = True
        while changed:
            changed = False
            for idx in range(len(instrs) - 1, -1, -1):
                instr = instrs[idx]
                if instr.writes is not None and instr.writes in wanted_regs:
                    if idx not in protected:
                        protected.add(idx)
                        changed = True
                        for r in instr.reads:
                            if r not in wanted_regs:
                                wanted_regs.add(r)
        return self._evaluate_protection(program, protected, "heuristic")

    def evaluate_oracle(self, program):
        """Upper bound: replicate exactly the injected-vulnerable set."""
        protected = {i for i, flag in enumerate(self._labels[program.name]) if flag}
        return self._evaluate_protection(program, protected, "oracle")

    def leave_one_out(self, program):
        """Train the SVM on the other workloads, evaluate on ``program``."""
        others = [p for p in self.programs if p.name != program.name]
        if not others:
            raise ValueError("need at least two programs for leave-one-out")
        svm, scaler = self.train_svm(train_programs=others)
        return self.evaluate_ipas(program, svm=svm, scaler=scaler)
