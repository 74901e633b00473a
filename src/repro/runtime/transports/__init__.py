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

from repro._lazy import lazy_exports

#: Public name -> defining module; each is imported on first use.
_EXPORTS = {
    "Task": "base",
    "Transport": "base",
    "TransportContext": "base",
    "UnitOutcome": "base",
    "execute_task_units": "base",
    "InlineTransport": "inline",
    "LOCAL_WORKER": "inline",
    "TcpTransport": "tcp",
    "tcp_worker_main": "tcp",
}

#: Registry of constructable transports by CLI/config name: the exported
#: class of each backend, whose module is imported when one is built.
TRANSPORTS = {
    "inline": "InlineTransport",
    "tcp": "TcpTransport",
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
        backend = TRANSPORTS[name]
    except KeyError:
        known = ", ".join(sorted(TRANSPORTS))
        raise ValueError(f"unknown transport {name!r} (choose from: {known})")
    factory = __getattr__(backend)
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise ValueError(
            f"transport {name!r} rejected its options: {exc}"
        ) from exc


__all__ = [*_EXPORTS, "TRANSPORTS", "create_transport"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
