"""Microarchitectural fault injection with outcome classification.

One injection flips one bit of one state element at one cycle of a
program's execution (single-event upset).  Outcomes follow the taxonomy
the paper's Sec. III (and ref [24]) uses:

* ``MASKED`` — run completes with the golden output;
* ``SDC`` — run completes but the output differs silently;
* ``CRASH`` — architectural violation (bad opcode/PC/address);
* ``HANG`` — cycle budget exceeded;
* ``SYMPTOM`` — run completes with the golden output but showed a
  detectable anomaly (cycle-count deviation), the hook symptom-based
  detectors key on.

Campaign execution is delegated to the shared runtime layer
(:mod:`repro.runtime`): each trial draws from its own deterministic
seed stream, so campaigns can fan out over worker processes (``jobs``),
memoize chunks on disk (``cache``), and report progress — with results
bit-identical to the serial path.  See ``docs/campaigns.md``.

Trial execution runs on one of two engines (``engine=``):

* ``"batched"`` (default) — trial-vectorized suffix replay: the single
  golden run leaves a ladder of architectural snapshots, and whole
  chunks of trials march down the golden PC trace in lockstep as numpy
  lanes, with per-opcode masked updates and an early-exit masking check
  that classifies a lane without running the rest of its suffix once
  its live state has reconverged with the golden run at a snapshot
  boundary; lanes whose control flow diverges from the golden trace
  finish on the block-compiled interpreter
  (:mod:`repro.arch.batched_engine`).
* ``"reference"`` — the original full re-execution from cycle 0, kept
  as the equivalence oracle (CLI: ``--reference-engine``).

Both engines produce bit-identical :class:`InjectionRecord`\\ s; the
engine is part of :meth:`FaultInjector.fingerprint`, so cached results
never cross engines.  See ``docs/fi-engine.md`` for the full design
contract and ``docs/performance.md`` for measured speedups.
"""

from __future__ import annotations

import enum
import functools
import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.arch.cpu import CPU, CrashError
from repro.runtime import CampaignRunner, stable_digest

#: Trial-execution engines: the vectorized engine and its oracle.
ENGINES = ("batched", "reference")

#: Default campaign chunk size per engine.  The batched engine amortizes
#: its per-sweep overhead over the whole chunk, so it defaults to wider
#: chunks; records are chunk-size-independent either way.
DEFAULT_CHUNK_SIZE = 32
BATCHED_CHUNK_SIZE = 1024

#: Cycle budget for the golden (fault-free) characterization run.
GOLDEN_MAX_CYCLES = 1_000_000

#: Snapshot-ladder cap under adaptive intervals: when the golden run
#: outgrows it, every other snapshot is dropped and the interval
#: doubles, bounding memory at O(cap) snapshots for any program length.
MAX_AUTO_SNAPSHOTS = 256

#: Per-process cache of built batched engines, keyed by injector
#: fingerprint.  Transports re-pickle the injector per submitted task
#: (``__getstate__`` drops the engine to keep submissions small), so
#: without this every task landing in a worker process would rebuild
#: the golden-effect arrays and snapshot ladder from scratch; with it,
#: the first task in a process pays the build and every later task for
#: a fingerprint-identical injector reuses it (counted by the
#: ``arch.fi.engine.ladder_reuse`` metric).  Bounded to a handful of
#: entries — one per distinct program/engine config a worker serves.
_ENGINE_CACHE_SLOTS = 4
_ENGINE_CACHE = {}


class Outcome(enum.Enum):
    """Sec. III outcome taxonomy for one injection trial."""

    MASKED = "masked"
    SDC = "sdc"
    CRASH = "crash"
    HANG = "hang"
    SYMPTOM = "symptom"


OUTCOME_INDEX = {o: i for i, o in enumerate(Outcome)}


@dataclass
class InjectionRecord:
    """One fault-injection trial."""

    program: str
    cycle: int
    element: str
    bit: int
    outcome: Outcome
    pc_at_injection: int = -1
    opcode_at_injection: str = ""


@dataclass
class CampaignResult:
    """All trials of one campaign plus the golden reference."""

    program: str
    golden_output: tuple
    golden_cycles: int
    records: list = field(default_factory=list)

    def counts(self):
        """Mapping outcome -> number of trials."""
        out = {o: 0 for o in Outcome}
        for r in self.records:
            out[r.outcome] += 1
        return out

    def rates(self):
        """Mapping outcome -> fraction of trials."""
        n = len(self.records)
        if n == 0:
            raise ValueError("campaign has no records")
        return {o: c / n for o, c in self.counts().items()}

    def failure_rate(self):
        """Fraction of trials that are SDC, crash, or hang."""
        rates = self.rates()
        return rates[Outcome.SDC] + rates[Outcome.CRASH] + rates[Outcome.HANG]

    def per_element(self):
        """Mapping state element -> list of its records."""
        by_el = {}
        for r in self.records:
            by_el.setdefault(r.element, []).append(r)
        return by_el

    def element_failure_rates(self):
        """Mapping element -> failure fraction among its injections."""
        out = {}
        for element, records in self.per_element().items():
            bad = sum(
                r.outcome in (Outcome.SDC, Outcome.CRASH, Outcome.HANG)
                for r in records
            )
            out[element] = bad / len(records)
        return out


class FaultInjector:
    """Runs fault-injection campaigns on a program.

    Parameters
    ----------
    program:
        The workload (:class:`repro.arch.isa.Program`).
    max_cycles_factor:
        Hang threshold as a multiple of the golden cycle count.
    symptom_tolerance:
        Relative cycle-count deviation below which a correct-output run is
        MASKED; above it, SYMPTOM.
    engine:
        Trial-execution engine: ``"batched"`` (default; trial-vectorized
        suffix replay) or ``"reference"`` (full rerun from cycle 0, the
        equivalence oracle).  Both produce bit-identical records.

    The golden-state snapshot interval adapts: it starts at 1 and
    doubles whenever the ladder outgrows :data:`MAX_AUTO_SNAPSHOTS`, so
    short programs checkpoint densely and long ones stay bounded.  The
    resolved value is exposed as ``snapshot_interval``.
    """

    def __init__(self, program, max_cycles_factor=4.0, symptom_tolerance=0.02,
                 engine="batched"):
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.program = program
        self.engine = engine
        self.symptom_tolerance = symptom_tolerance
        self.last_run_stats = None  # RunStats of the most recent campaign
        self._batched = None  # lazy BatchedEngine (per process; unpickled)

        # One golden run produces everything the trials need: the output
        # words and cycle count, the per-cycle PC trace (which instruction
        # was in flight at each cycle — pattern mining and the selective
        # replication flow key on it), and the batched engine's ladder of
        # architectural snapshots.
        cpu = CPU(program, max_cycles=GOLDEN_MAX_CYCLES)
        interval = 1
        snapshots = []
        trace = []
        while not cpu.halted:
            if cpu.cycles % interval == 0:
                snapshots.append(cpu.snapshot())
                if len(snapshots) > MAX_AUTO_SNAPSHOTS:
                    snapshots = snapshots[::2]
                    interval *= 2
            trace.append(cpu.pc)
            cpu.step()
        self.golden_output = cpu.output(program.output_range)
        self.golden_cycles = cpu.cycles
        self.golden_pc_trace = trace
        self.max_cycles = max(int(cpu.cycles * max_cycles_factor), cpu.cycles + 64)
        self.snapshot_interval = interval
        self._snapshots = snapshots
        self._live_regs = self._boundary_liveness(trace, interval)
        # Last snapshot cycle: boundary checks past it are impossible.
        self._last_boundary = ((self.golden_cycles - 1) // interval) * interval
        # Trials restore into one reusable CPU instead of building a fresh
        # simulator per injection.
        self._trial_cpu = CPU(program, max_cycles=self.max_cycles)
        obs.inc("arch.fi.engine.snapshots", len(snapshots))
        obs.emit(
            "fi.ladder",
            engine=self.engine, program=program.name,
            golden_cycles=self.golden_cycles, snapshots=len(snapshots),
            snapshot_interval=interval,
        )

    def _boundary_liveness(self, trace, interval):
        """Golden live-in register sets at each snapshot boundary.

        A register the golden suffix never reads before overwriting
        cannot influence anything the outcome classification observes
        (output words and cycle count) — the ACE/un-ACE distinction of
        AVF analysis.  The early-exit check therefore compares only the
        live set: a flipped dead register still reconverges, instead of
        pinning the trial to a full suffix re-execution.
        """
        live = set()
        live_at = {}
        instructions = self.program.instructions
        for cycle in range(len(trace) - 1, -1, -1):
            instr = instructions[trace[cycle]]
            written = instr.writes
            if written is not None:
                live.discard(written)
            live.update(instr.reads)
            if cycle % interval == 0:
                # r0 is hardwired to zero in every run; never compare it.
                live_at[cycle] = tuple(sorted(live - {0}))
        return live_at

    def _injection_context(self, cycle):
        """Log-feature context: the golden instruction at the injection
        cycle (pattern mining keys on it)."""
        if 0 <= cycle < len(self.golden_pc_trace):
            pc_at = self.golden_pc_trace[cycle]
            return pc_at, self.program.instructions[pc_at].opcode.value
        return -1, ""

    def _classify(self, output, cycles):
        """The Sec. III taxonomy for a completed (non-crash) run."""
        if output != self.golden_output:
            return Outcome.SDC
        if (
            abs(cycles - self.golden_cycles)
            > self.symptom_tolerance * self.golden_cycles
        ):
            return Outcome.SYMPTOM
        return Outcome.MASKED

    def inject_many(self, coords):
        """Run trials for ``coords`` (``(cycle, element, bit)`` triples).

        Returns one :class:`InjectionRecord` per coordinate, in input
        order, bit-identical on both engines.  On the batched engine,
        register trials execute as lanes of one vectorized sweep
        (:mod:`repro.arch.batched_engine`); ``pc``/``ir`` trials leave
        the golden trace at the injection cycle itself, so they replay
        to the injection point and finish on the block-compiled
        interpreter.
        """
        coords = [(cycle, element, bit) for cycle, element, bit in coords]
        if self.engine == "reference":
            outcomes = [self._inject_reference(*coord) for coord in coords]
        else:
            outcomes = self._inject_batched(coords)
        records = []
        for (cycle, element, bit), outcome in zip(coords, outcomes):
            pc_at, opcode_at = self._injection_context(cycle)
            records.append(
                self._record(cycle, element, bit, outcome, pc_at, opcode_at)
            )
        self._emit_trials(records)
        return records

    def _inject_batched(self, coords):
        """Outcomes for ``coords`` on the vectorized engine, in input order."""
        outcomes = [None] * len(coords)
        lanes = []
        offtrace = []
        for i, (cycle, element, bit) in enumerate(coords):
            if not 0 <= cycle < self.golden_cycles:
                obs.inc("arch.fi.engine.cycles_skipped", self.golden_cycles)
                outcomes[i] = self._classify(
                    self.golden_output, self.golden_cycles
                )
            elif element.startswith("reg"):
                lanes.append((i, cycle, int(element[3:]), bit))
            else:
                offtrace.append((i, cycle, element, bit))
        if offtrace:
            engine = self._batched_engine()
            obs.inc("arch.fi.engine.batch.offtrace_trials", len(offtrace))
            for i, cycle, element, bit in offtrace:
                outcomes[i] = engine.run_offtrace(cycle, element, bit)
        if lanes:
            engine = self._batched_engine()
            with obs.span("arch.cpu.batch", trials=len(lanes)):
                for i, outcome in engine.run(lanes):
                    outcomes[i] = outcome
        return outcomes

    def _emit_trials(self, records):
        """Counters and flight-recorder rows for one executed batch of trials.

        One ``fi.trials`` event per :meth:`inject_many` call, carrying a
        compact ``[cycle, element, bit, outcome]`` row per trial, and one
        counter increment per outcome label — the framing (not one event
        or increment per trial) is what keeps the per-trial recording
        overhead inside the perf-smoke budget.  Guarded here so nothing
        is built while recording is off.
        """
        if not records or not obs.enabled():
            return
        rows = [[r.cycle, r.element, r.bit, r.outcome.value] for r in records]
        _count_trials([row[3] for row in rows])
        obs.emit("fi.trials", engine=self.engine, program=self.program.name,
                 items=rows)

    def _batched_engine(self):
        """The lazily-built vectorized engine, shared per process.

        Looked up in (and inserted into) the module-level
        :data:`_ENGINE_CACHE` by fingerprint digest, so the unpickled
        injector copies that arrive with each transport task reuse the
        engine a previous task already built in this worker process.
        The fingerprint covers everything that determines a trial's
        result, which is exactly the reuse-safety contract.
        """
        if self._batched is None:
            key = stable_digest("fi-engine", self.fingerprint())
            engine = _ENGINE_CACHE.get(key)
            if engine is None:
                from repro.arch.batched_engine import BatchedEngine

                engine = BatchedEngine(self)
                while len(_ENGINE_CACHE) >= _ENGINE_CACHE_SLOTS:
                    _ENGINE_CACHE.pop(next(iter(_ENGINE_CACHE)))
                _ENGINE_CACHE[key] = engine
            else:
                obs.inc("arch.fi.engine.ladder_reuse")
            self._batched = engine
        return self._batched

    def __getstate__(self):
        """Pickle without the lazy batched engine.

        Chunk workers re-pickle the injector per submitted unit; the
        engine's precomputed golden-effect arrays would bloat every
        submit, and rebuilding them in the worker is cheap.
        """
        state = dict(self.__dict__)
        state["_batched"] = None
        return state

    def _inject_reference(self, cycle, element, bit):
        """Full re-execution from cycle 0 (the equivalence oracle)."""
        cpu = CPU(self.program, max_cycles=self.max_cycles)
        try:
            with obs.span("arch.cpu.run"):
                result = cpu.run(fault=(cycle, element, bit))
        except CrashError:
            return Outcome.CRASH
        except TimeoutError:
            return Outcome.HANG
        return self._classify(result.output(self.program.output_range), result.cycles)

    def _record(self, cycle, element, bit, outcome, pc_at, opcode_at):
        return InjectionRecord(
            program=self.program.name,
            cycle=cycle,
            element=element,
            bit=bit,
            outcome=outcome,
            pc_at_injection=pc_at,
            opcode_at_injection=opcode_at,
        )

    def fingerprint(self):
        """Content digest of everything that determines a trial's result.

        Namespaces the result cache: any change to the program, the hang
        budget, the symptom threshold, or the trial engine changes the
        fingerprint and invalidates prior entries.  The engines are
        proven bit-identical, but keeping their cache namespaces separate
        means the oracle always re-executes — an oracle that reads back
        the batched engine's results would verify nothing.
        """
        listing = "\n".join(repr(i) for i in self.program.instructions)
        return {
            "program": self.program.name,
            "instructions": hashlib.sha256(listing.encode()).hexdigest(),
            "output_range": list(self.program.output_range),
            "golden_cycles": self.golden_cycles,
            "max_cycles": self.max_cycles,
            "symptom_tolerance": self.symptom_tolerance,
            "engine": self.engine,
        }

    def engine_stats(self):
        """Engine choice plus snapshot-ladder statistics.

        The ``fi`` experiment stores this in its run record so a report
        can explain where a campaign's time went (which engine actually
        ran, how dense the checkpoint ladder was) without re-deriving
        it from the program.
        """
        return {
            "engine": self.engine,
            "golden_cycles": self.golden_cycles,
            "max_cycles": self.max_cycles,
            "snapshots": len(self._snapshots),
            "snapshot_interval": self.snapshot_interval,
            "last_boundary": self._last_boundary,
        }

    def _campaign(self, worker, n_trials, seed, key_parts, jobs, cache, progress,
                  chunk_size, policy, resume, worker_wrapper=None,
                  transport=None, transport_options=None):
        if chunk_size is None:
            chunk_size = (
                BATCHED_CHUNK_SIZE if self.engine == "batched"
                else DEFAULT_CHUNK_SIZE
            )
        if worker_wrapper is not None:
            # Test hook (e.g. repro.runtime.ChaosWorker): wraps execution
            # only — cache keys are unchanged, so a wrapper must not alter
            # what a trial computes, merely how reliably it completes.
            worker = worker_wrapper(worker)
        runner = CampaignRunner(
            jobs=jobs, cache=cache, progress=progress, chunk_size=chunk_size,
            classify=lambda record: record.outcome.value,
            policy=policy, resume=resume,
            transport=transport, transport_options=transport_options,
        )
        with obs.span(
            "arch.fault_injection.campaign",
            program=self.program.name, trials=n_trials,
        ):
            records = runner.run_trials(
                worker, n_trials, seed=seed,
                key=("fi-campaign", self.fingerprint(), key_parts),
            )
        self.last_run_stats = runner.stats
        return CampaignResult(
            program=self.program.name,
            golden_output=self.golden_output,
            golden_cycles=self.golden_cycles,
            records=records,
        )

    def run_campaign(self, n_trials=500, seed=0, elements=None, jobs=1,
                     cache=None, progress=None, chunk_size=None, policy=None,
                     resume=False, worker_wrapper=None, transport=None,
                     transport_options=None):
        """Uniformly random (cycle, element, bit) injection campaign.

        Trial ``i`` samples its coordinates from the seed stream
        ``(seed, i)`` regardless of chunking, so any ``jobs`` or
        ``chunk_size`` value yields identical records
        (``chunk_size=None`` picks the engine default).  ``cache`` (a
        :class:`repro.runtime.ResultCache`) memoizes trial chunks;
        ``progress`` receives :class:`repro.runtime.ProgressEvent`
        updates.  ``policy`` (a :class:`repro.runtime.FaultPolicy`)
        governs per-unit timeouts, retries, and requeues;
        ``resume=True`` replays an interrupted campaign's journal from
        the cache and finishes it bit-identically.  Runner accounting is
        left in ``self.last_run_stats``.

        ``worker_wrapper`` is a fault-tolerance test hook: a callable
        applied to the chunk worker before execution (typically
        :class:`repro.runtime.ChaosWorker`).  It does not enter the
        cache key, so wrapped campaigns must produce the same records.

        ``transport``/``transport_options`` select the execution
        backend (``"inline"``, ``"tcp"``, or a
        :class:`repro.runtime.Transport` instance); every backend
        yields bit-identical records.  See ``docs/distributed.md``.
        """
        elements = list(elements or CPU(self.program).state_elements())
        worker = functools.partial(_random_chunk, self, tuple(elements))
        return self._campaign(worker, n_trials, seed, ("random", elements),
                              jobs, cache, progress, chunk_size, policy, resume,
                              worker_wrapper, transport, transport_options)

    def run_steered_campaign(self, budget=4096, seed=0, elements=None,
                             config=None, jobs=1, cache=None, progress=None,
                             policy=None, resume=False, worker_wrapper=None,
                             transport=None, transport_options=None):
        """Adaptively steered campaign with sequential early stopping.

        Trials are allocated by stratified importance sampling from an
        online surrogate and the campaign stops once the AVF confidence
        half-width reaches the steering config's target — see
        :mod:`repro.arch.steering` and ``docs/steering.md``.  Accepts
        the same runtime knobs as :meth:`run_campaign`; ``budget`` caps
        the trials a run may spend.  Returns a
        :class:`repro.arch.steering.SteeredCampaignResult`.
        """
        from repro.arch.steering import run_steered_campaign
        return run_steered_campaign(
            self, budget=budget, seed=seed, elements=elements, config=config,
            jobs=jobs, cache=cache, progress=progress, policy=policy,
            resume=resume, worker_wrapper=worker_wrapper,
            transport=transport, transport_options=transport_options,
        )

    def exhaustive_element_campaign(self, element, n_trials=200, seed=0, jobs=1,
                                    cache=None, progress=None, chunk_size=None,
                                    policy=None, resume=False, transport=None,
                                    transport_options=None):
        """Many injections into a single element (per-element AVF estimation)."""
        worker = functools.partial(_element_chunk, self, element)
        return self._campaign(worker, n_trials, seed, ("element", element),
                              jobs, cache, progress, chunk_size, policy, resume,
                              transport=transport,
                              transport_options=transport_options)


def _count_trials(labels):
    """The trial and per-outcome counters for trials with these outcome labels."""
    obs.inc("arch.fault_injection.trials", len(labels))
    for label, n in Counter(labels).items():
        obs.inc(f"arch.fault_injection.outcome.{label}", n)


def _random_chunk(injector, elements, chunk):
    """Execute one trial chunk of a random campaign (campaign worker).

    Trial ``i`` draws ``(cycle, element, bit)`` from its own seed stream
    — one vectorized pass over the chunk, equal to per-trial
    ``trial_rng(seed, i).integers`` calls — and the chunk is executed
    together via :meth:`FaultInjector.inject_many`, so the batched engine
    sees it as one sweep while every record stays engine- and
    chunk-independent.
    """
    with obs.span("arch.fault_injection.chunk", trials=len(chunk)):
        draws = chunk.integers(injector.golden_cycles, len(elements), 32)
        coords = [(cycle, elements[e], bit) for cycle, e, bit in draws.tolist()]
        return injector.inject_many(coords)


def _element_chunk(injector, element, chunk):
    """Execute one trial chunk of a single-element campaign."""
    with obs.span("arch.fault_injection.chunk", trials=len(chunk)):
        draws = chunk.integers(injector.golden_cycles, 32)
        coords = [(cycle, element, bit) for cycle, bit in draws.tolist()]
        return injector.inject_many(coords)
