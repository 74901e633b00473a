"""Outside-in tracing for the benchmark's traced run.

Spans are recorded by the benchmark's own code around calls into the
public functions of each ``repro`` layer: methods are wrapped on their
classes for the length of a traced pass, the chunk worker through the
public ``worker_wrapper=`` hook, and the result cache through a
``ResultCache`` subclass passed as ``cache=``.  Nothing inside ``src/``
changes.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: The benchmark's clock: CPU seconds of this (single-threaded) process.
#: On an idle host it equals wall-clock time; unlike wall-clock time it
#: does not count the time a shared host's hypervisor takes the CPU away.
CLOCK = time.process_time


class Tracer:
    """In-memory span recorder: ``[name, start, end, parent, op, attrs]``.

    ``parent`` is the index of the enclosing span (``None`` at a root),
    ``op`` the identifier of the campaign or flow the span belongs to.
    Recording is off until :attr:`active` is set.
    """

    def __init__(self):
        self.spans = []
        self.active = False
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        if not self.active:
            yield attrs
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, CLOCK(), None, parent, self.op, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record[2] = CLOCK()

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op", "attrs")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def self_times(spans):
    """Per-span self time: duration minus what its children cover.

    The benchmark is single-threaded (``jobs=1``), so children of one
    span never overlap and their durations can simply be summed.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def descendants(spans, root):
    """Indices of every span nested under span ``root``."""
    inside = {root}
    found = []
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
            found.append(i)
    return found


def wrap_method(tracer, cls, attr, name, rows=False):
    """Replace ``cls.attr`` by a span-recording wrapper; returns an undo.

    With ``rows=True`` the span records ``len`` of the first positional
    argument (the training matrix of a ``fit``).
    """
    original = cls.__dict__[attr]

    def wrapper(self, *args, **kwargs):
        attrs = {"rows": len(args[0])} if rows else {}
        with tracer.span(name, **attrs):
            return original(self, *args, **kwargs)

    setattr(cls, attr, wrapper)
    return lambda: setattr(cls, attr, original)


class TracedWorker:
    """``worker_wrapper=`` hook: one ``arch.inject`` span per trial chunk."""

    def __init__(self, worker, tracer):
        self.worker = worker
        self.tracer = tracer

    def __call__(self, chunk):
        with self.tracer.span("arch.inject", trials=len(chunk)):
            return self.worker(chunk)


def traced_cache_class():
    """A ``ResultCache`` subclass timing ``get``/``put`` (built lazily so
    importing this module does not import ``repro``)."""
    from repro.runtime import MISS, ResultCache

    class TracedCache(ResultCache):
        def __init__(self, path, tracer):
            super().__init__(path)
            self.tracer = tracer

        def get(self, digest):
            with self.tracer.span("runtime.cache.get") as attrs:
                value = super().get(digest)
                attrs["hit"] = value is not MISS
            return value

        def put(self, digest, value):
            with self.tracer.span("runtime.cache.put"):
                return super().put(digest, value)

    return TracedCache


def install_layer_wrappers(tracer):
    """Wrap the public entry points of every measured layer; returns undo.

    ``repro.arch`` golden runs, ``repro.arch.steering`` unit-source
    callbacks, ``repro.ml`` tree-ensemble and MLP training, and the
    ``repro.circuit`` Fig. 3 stages.
    """
    from repro.arch import FaultInjector
    from repro.arch.steering import SteeredUnitSource
    from repro.circuit.characterization import SpiceLikeCharacterizer
    from repro.circuit.ml_characterization import MLCharacterizer
    from repro.circuit.she_flow import SheFlow
    from repro.circuit.sta import StaticTimingAnalysis
    from repro.ml import GradientBoostingClassifier, MLPRegressor

    undo = [
        wrap_method(tracer, FaultInjector, "__init__", "arch.golden"),
        wrap_method(tracer, SteeredUnitSource, "__init__", "arch.steering"),
        wrap_method(tracer, SteeredUnitSource, "on_result", "arch.steering"),
        wrap_method(tracer, GradientBoostingClassifier, "fit", "ml.gbdt.fit",
                    rows=True),
        wrap_method(tracer, GradientBoostingClassifier, "predict_proba",
                    "ml.gbdt.predict"),
        wrap_method(tracer, MLPRegressor, "fit", "ml.mlp.fit", rows=True),
        wrap_method(tracer, SpiceLikeCharacterizer, "characterize_library",
                    "circuit.characterize"),
        wrap_method(tracer, SheFlow, "run", "circuit.she_flow"),
        wrap_method(tracer, StaticTimingAnalysis, "run", "circuit.sta"),
        wrap_method(tracer, MLCharacterizer, "fit", "circuit.ml_char.label"),
        wrap_method(tracer, MLCharacterizer, "validate",
                    "circuit.ml_char.validate"),
        wrap_method(tracer, MLCharacterizer, "generate_instance_library",
                    "circuit.ml_char.generate"),
    ]

    def restore():
        for fn in reversed(undo):
            fn()

    return restore
