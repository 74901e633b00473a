"""Hierarchical tracing spans aggregated into a per-run span tree.

A *span* names one region of work with a dotted ``layer.component[.detail]``
path (``"circuit.sta.run"``, ``"arch.fault_injection.chunk"``).  Spans nest:
whatever span is active when a new one opens becomes its parent, across
module and layer boundaries, via :mod:`contextvars`.  That is how one
recorded campaign shows runtime → architecture → circuit time without any
of those layers knowing about each other.

Spans are **aggregated, not logged**: all occurrences of the same name
under the same parent share one :class:`SpanNode` that accumulates wall
time and a call count.  A 10⁵-trial campaign therefore produces a span
tree of a few dozen nodes, the tree *shape* is identical for serial and
parallel execution of the same campaign, and memory stays bounded no
matter how hot the instrumented path is.

When tracing is disabled (the default) :meth:`Tracer.span` returns a
shared no-op context manager — the cost of an instrumented call site is
one attribute check.
"""

from __future__ import annotations

import time
from contextvars import ContextVar


class SpanNode:
    """One aggregated node of the span tree.

    ``count`` occurrences of this span name under this parent were
    observed, spending ``total_s`` wall seconds in total (children
    included — subtract their totals for exclusive self-time).
    """

    __slots__ = ("name", "count", "total_s", "attrs", "children")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.attrs = {}
        self.children = {}

    def child(self, name):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    @property
    def self_s(self):
        """Wall time not attributed to any child span."""
        return max(self.total_s - sum(c.total_s for c in self.children.values()), 0.0)

    def to_dict(self):
        """JSON-ready form; children sorted by name for determinism."""
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "attrs": dict(self.attrs),
            "children": [
                self.children[k].to_dict() for k in sorted(self.children)
            ],
        }

    def absorb(self, node_dict):
        """Merge a serialized subtree (same name) into this node.

        This is how spans recorded inside a worker process are
        re-parented onto the parent process's tree: counts and wall times
        add, attributes take the newest value, children merge by name.
        """
        self.count += node_dict.get("count", 0)
        self.total_s += node_dict.get("total_s", 0.0)
        self.attrs.update(node_dict.get("attrs") or {})
        for child in node_dict.get("children", ()):
            self.child(child["name"]).absorb(child)


def span_shape(node_dict):
    """Reduce a serialized span (sub)tree to its shape: names + counts.

    Two runs of the same campaign — serial or fanned out over any number
    of worker processes — must produce equal shapes; wall times are the
    only thing allowed to differ.
    """
    return {
        "name": node_dict["name"],
        "count": node_dict["count"],
        "children": [span_shape(c) for c in node_dict.get("children", ())],
    }


class _NullSpan:
    """Reusable no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span: binds a :class:`SpanNode`, times the enclosed block."""

    __slots__ = ("_tracer", "_name", "_attrs", "_node", "_token", "_t0")

    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        parent = self._tracer.current()
        self._node = parent.child(self._name)
        if self._attrs:
            self._node.attrs.update(self._attrs)
        self._token = self._tracer._active.set(self._node)
        self._t0 = time.perf_counter()
        return self._node

    def __exit__(self, exc_type, exc, tb):
        self._node.count += 1
        self._node.total_s += time.perf_counter() - self._t0
        self._tracer._active.reset(self._token)
        return False


class Tracer:
    """Holds the span tree of the current run and the active-span stack."""

    #: Name of the implicit root every recorded run hangs off.
    ROOT_NAME = "run"

    def __init__(self):
        self.enabled = False
        self.root = SpanNode(self.ROOT_NAME)
        self._active = ContextVar("repro_obs_active_span", default=None)

    def span(self, name, **attrs):
        """Context manager opening one span; no-op while disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def current(self):
        """The innermost active :class:`SpanNode` (the root when idle)."""
        return self._active.get() or self.root

    def reset(self):
        """Drop all recorded spans (a new root tree)."""
        self.root = SpanNode(self.ROOT_NAME)
        self._active.set(None)

    def snapshot(self):
        """The whole tree as a JSON-ready dict."""
        return self.root.to_dict()

    def absorb_children(self, children):
        """Graft serialized worker subtrees under the currently active span."""
        node = self.current()
        for child in children:
            node.child(child["name"]).absorb(child)
