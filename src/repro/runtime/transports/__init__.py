"""Pluggable campaign transports (see :mod:`repro.runtime.transports.base`).

The :func:`create_transport` registry maps the CLI's ``--transport``
names to backends:

========  ==========================================================
name      backend
========  ==========================================================
inline    synchronous in-process execution (the serial reference)
tcp       socket stream served to forked local workers and
          ``repro worker --connect`` processes
========  ==========================================================
"""

from __future__ import annotations

from repro.runtime.transports.base import (
    Task,
    Transport,
    TransportContext,
    UnitOutcome,
    execute_task_units,
)
from repro.runtime.transports.inline import LOCAL_WORKER, InlineTransport
from repro.runtime.transports.tcp import TcpTransport, tcp_worker_main

#: Registry of constructable transports by CLI/config name.
TRANSPORTS = {
    "inline": InlineTransport,
    "tcp": TcpTransport,
}


def create_transport(name, **kwargs):
    """Build a transport by registry name (see :data:`TRANSPORTS`).

    ``kwargs`` go to the backend constructor — e.g.
    ``create_transport("tcp", host="0.0.0.0", port=7777, workers=4)``.  Options the
    backend does not accept raise :class:`ValueError` naming the backend
    (not a bare ``TypeError``), so a typo in ``transport_options``
    surfaces as a configuration error.
    """
    try:
        factory = TRANSPORTS[name]
    except KeyError:
        known = ", ".join(sorted(TRANSPORTS))
        raise ValueError(f"unknown transport {name!r} (choose from: {known})")
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise ValueError(
            f"transport {name!r} rejected its options: {exc}"
        ) from exc


__all__ = [
    "Task",
    "Transport",
    "TransportContext",
    "UnitOutcome",
    "execute_task_units",
    "InlineTransport",
    "LOCAL_WORKER",
    "TcpTransport",
    "tcp_worker_main",
    "TRANSPORTS",
    "create_transport",
]
