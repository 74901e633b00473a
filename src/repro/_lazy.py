"""Lazy package exports: a package imports a module when a caller uses it.

A package ``__init__`` that re-exports names from its modules lists them
in one table, name -> defining module (relative to the package), and
binds the PEP 562 module hooks::

    _EXPORTS = {"FaultInjector": "fault_injection", "programs": "programs"}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``pkg.Name`` and ``from pkg import Name`` import the defining module on
first use and cache the object in the package namespace, so later
lookups never reach ``__getattr__``.  A name mapped to itself
(``"programs": "programs"``) exports the submodule.  Importing a package
thus costs its ``__init__`` alone: a fault-injection process never
compiles the studies, the ML substrate or the tcp transport it does not
run (see "Cold start" in ``docs/performance.md``).
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package, table):
    """The ``(__getattr__, __dir__)`` hooks resolving ``table`` for ``package``."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{table[name]}")
        value = module if table[name] == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__
