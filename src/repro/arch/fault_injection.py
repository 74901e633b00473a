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

An injector records its program's golden trace once
(:mod:`repro.arch.golden`) and runs trials on one of two engines
(``engine=``):

* ``"batched"`` (default) — register flips the trace's liveness mask
  shows dead (un-ACE) are answered ``MASKED`` unrun; every other trial
  runs its faulty suffix from golden state at its injection cycle on
  the block-compiled interpreter (:mod:`repro.arch.batched_engine`).
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
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from repro import obs
from repro.arch.cpu import CPU, STATE_ELEMENTS, CrashError
from repro.arch.golden import GoldenTrace
from repro.arch.isa import N_REGISTERS
from repro.runtime.runner import CampaignRunner

#: Trial-execution engines: the batched engine and its oracle.
ENGINES = ("batched", "reference")

#: Default campaign chunk size per engine.  The batched engine amortizes
#: its per-sweep overhead over the whole chunk, so it defaults to wider
#: chunks; records are chunk-size-independent either way.
DEFAULT_CHUNK_SIZE = 32
BATCHED_CHUNK_SIZE = 1024

#: State element -> index into ``STATE_ELEMENTS`` (``pc`` is 16).
_ELEMENT_INDEX = {name: i for i, name in enumerate(STATE_ELEMENTS)}


class Outcome(enum.Enum):
    """Sec. III outcome taxonomy for one injection trial."""

    MASKED = "masked"
    SDC = "sdc"
    CRASH = "crash"
    HANG = "hang"
    SYMPTOM = "symptom"


OUTCOME_INDEX = {o: i for i, o in enumerate(Outcome)}

#: Outcome labels (``Outcome.value``), in :class:`Outcome` order.
_LABELS = tuple(o.value for o in Outcome)


@dataclass(slots=True)
class InjectionRecord:
    """One fault-injection trial.

    Slotted: a record holds its seven fields and no ``__dict__``, which
    is what bounds a campaign's memory (every trial is kept).
    """

    program: str
    cycle: int
    element: str
    bit: int
    outcome: Outcome
    pc_at_injection: int = -1
    opcode_at_injection: str = ""


#: :class:`InjectionRecord` field names, in constructor order.
_FIELDS = tuple(f.name for f in fields(InjectionRecord))

#: Injection context of a cycle outside the golden run.
_NO_CONTEXT = (-1, "")


class _RecordList(list):
    """The records of one :meth:`FaultInjector.inject_many` call.

    A plain list of :class:`InjectionRecord`\\ s that pickles as one
    column per field instead of one object per record, so cache entries
    and tcp result payloads are a handful of flat lists.  Every field is
    a column, so any list of records (mutated, or mixing programs)
    round-trips equal.
    """

    __slots__ = ()

    def __reduce__(self):
        return _records_from_columns, tuple(
            list(map(attrgetter(name), self)) for name in _FIELDS
        )


def _records_from_columns(*columns):
    """Inverse of :meth:`_RecordList.__reduce__`."""
    return _RecordList(map(InjectionRecord, *columns))


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
        Trial-execution engine: ``"batched"`` (default; block-compiled
        suffix replay) or ``"reference"`` (full rerun from cycle 0, the
        equivalence oracle).  Both produce bit-identical records.
    """

    def __init__(self, program, max_cycles_factor=4.0, symptom_tolerance=0.02,
                 engine="batched"):
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.program = program
        self.engine = engine
        self.symptom_tolerance = symptom_tolerance
        self.last_run_stats = None  # RunStats of the most recent campaign
        self._batched = None  # lazy BatchedEngine (per object; unpickled)

        # One golden pass records the trace every consumer reads
        # (:mod:`repro.arch.golden`); an unpickled copy reuses it.
        golden = self.golden = GoldenTrace.record(program)
        self.golden_output = golden.output
        self.golden_cycles = n = golden.cycles
        self.golden_pc_trace = golden.pc_trace
        self.max_cycles = max(int(n * max_cycles_factor), n + 64)
        # Trials restore into one reusable CPU instead of building a fresh
        # simulator per injection.
        self._trial_cpu = CPU(program, max_cycles=self.max_cycles)
        obs.emit("fi.golden", engine=self.engine, program=program.name,
                 golden_cycles=n)

    def live_cycles(self, element):
        """Sorted golden cycles at which a flip of ``element`` can matter.

        For ``regN``: the cycles at which register ``N`` is live-in on
        the golden run (empty for ``reg0``); a flip at any other cycle
        is un-ACE and classifies ``MASKED``.  ``None`` for ``pc``/``ir``,
        whose flips leave the golden trace at once.
        """
        if not element.startswith("reg"):
            return None
        bit = np.uint32(1 << int(element[3:]))
        return np.flatnonzero(self.golden.live_mask & bit)

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
        order, bit-identical on both engines, in a list that pickles as
        field columns; the batched engine runs them in one sweep
        (:mod:`repro.arch.batched_engine`).  Raises
        :class:`ValueError` before any trial runs, on either engine, for
        an element outside :meth:`CPU.state_elements` or a bit outside
        ``0..31``.
        """
        coords = [(cycle, element, bit) for cycle, element, bit in coords]
        lanes = []
        for i, (cycle, element, bit) in enumerate(coords):
            index = _ELEMENT_INDEX.get(element)
            if index is None or not 0 <= bit < 32:
                raise ValueError(f"invalid fault coordinate {(cycle, element, bit)!r}")
            lanes.append((i, cycle, index, bit))
        if self.engine == "reference":
            outcomes = [self._inject_reference(*coord) for coord in coords]
        else:
            outcomes = self._inject_batched(lanes)
        name = self.program.name
        context = self.golden.context
        n = len(context)
        records = _RecordList([
            InjectionRecord(
                name, cycle, element, bit, outcome,
                *(context[cycle] if 0 <= cycle < n else _NO_CONTEXT),
            )
            for (cycle, element, bit), outcome in zip(coords, outcomes)
        ])
        if coords and obs.enabled():
            self._emit_trials(coords, outcomes)
        return records

    def _inject_batched(self, lanes):
        """Outcomes of ``(i, cycle, element_index, bit)`` lanes, in order.

        Trials outside the golden window, and register flips at cycles
        where the register is dead on the golden run (:meth:`live_cycles`;
        one vectorized mask test), get the golden classification unrun;
        every other trial runs in one :class:`BatchedEngine` sweep.
        """
        n = self.golden_cycles
        outcomes = [self._classify(self.golden_output, n)] * len(lanes)
        run = [lane for lane in lanes if 0 <= lane[1] < n]
        if len(run) < len(lanes):
            obs.inc("arch.fi.engine.out_of_window", len(lanes) - len(run))
        if run:
            cycles, index = np.array([lane[1:3] for lane in run]).T
            live = (index >= N_REGISTERS) | (
                self.golden.live_mask[cycles] >> index.astype(np.uint32)
            ) & 1
            keep = np.flatnonzero(live)
            if keep.size < live.size:
                obs.inc("arch.fi.engine.pruned_dead", live.size - keep.size)
                run = [run[j] for j in keep.tolist()]
        if run:
            with obs.span("arch.cpu.batch", trials=len(run)):
                for i, outcome in self._batched_engine().run(run):
                    outcomes[i] = outcome
        return outcomes

    def _emit_trials(self, coords, outcomes):
        """Counters and the flight-recorder frame for one batch of trials.

        One ``fi.trials`` event per :meth:`inject_many` call, carrying
        the batch as four packed columns (:func:`repro.obs.trial_columns`),
        and one counter increment per outcome label.  The framing (not
        one event or increment per trial) and the columns (read off the
        coordinates, with no per-trial object, ``Enum`` property or hash)
        keep recording inside the perf-smoke budget.
        """
        labels = [outcome._value_ for outcome in outcomes]
        obs.inc("arch.fault_injection.trials", len(labels))
        for label in _LABELS:
            n = labels.count(label)
            if n:
                obs.inc(f"arch.fault_injection.outcome.{label}", n)
        obs.emit("fi.trials", engine=self.engine, program=self.program.name,
                 **obs.trial_columns(coords, labels))

    def _batched_engine(self):
        """The batched engine, built on first use."""
        if self._batched is None:
            from repro.arch.batched_engine import BatchedEngine

            self._batched = BatchedEngine(self)
        return self._batched

    def __getstate__(self):
        """Pickle without the lazy batched engine.

        Its block interpreter is a generated function, which cannot be
        pickled; the unpickled copy builds its own engine on first use.
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
        """Engine choice plus the golden run's length and the hang budget.

        The ``fi`` experiment stores this in its run record so a report
        can explain where a campaign's time went (which engine actually
        ran, how long the golden run it fast-forwards through is)
        without re-deriving it from the program.
        """
        return {
            "engine": self.engine,
            "golden_cycles": self.golden_cycles,
            "max_cycles": self.max_cycles,
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
        elements = list(elements or STATE_ELEMENTS)
        worker = functools.partial(_random_chunk, self, tuple(elements))
        return self._campaign(worker, n_trials, seed, ("random", elements),
                              jobs, cache, progress, chunk_size, policy, resume,
                              worker_wrapper, transport, transport_options)

    def run_steered_campaign(self, budget=4096, seed=0, elements=None,
                             config=None, jobs=1, cache=None, progress=None,
                             policy=None, resume=False, worker_wrapper=None,
                             transport=None, transport_options=None):
        """Adaptively steered campaign with sequential early stopping.

        Trials are allocated by stratified sampling steered by the
        observed failure rates and the campaign stops once the AVF confidence
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
