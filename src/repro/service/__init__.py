"""DSE as a service: the experiment broker, its wire schema, client.

Three layers, importable independently:

* :mod:`repro.service.schema` -- the frozen, versioned request/result
  surface (:class:`SweepRequest` / :class:`PointSpec` /
  :class:`PointResult`) shared by the CLI, the engine's
  :func:`repro.parallel.run_sweep` and the network protocol;
* :mod:`repro.service.broker` -- the asyncio broker
  (``python -m repro serve``): a thin front end that runs each point
  through the engine's point runner, with request coalescing,
  a shared result store and streaming completion-order results;
* :mod:`repro.service.client` -- the blocking socket client
  (``submit`` / ``stream`` / ``collect`` / ``cancel``).

The schema is imported eagerly (it is dependency-light and the engine
needs it); the broker and client load lazily so importing
``repro.service`` never drags asyncio server machinery into library
callers that only want the dataclasses.
"""

from .schema import (SCHEMA_VERSION, PointResult, PointSpec, SchemaError,
                     SweepRequest, decode_line, encode_line)

_LAZY = {
    "Broker": "broker",
    "BrokerHandle": "broker",
    "ServiceConfig": "broker",
    "serve": "broker",
    "serve_background": "broker",
    "Client": "client",
    "ServiceError": "client",
}


def __getattr__(name):
    # the broker imports the engine which imports this package's
    # schema -- loading broker/client lazily keeps that cycle open
    if name in _LAZY:
        import importlib
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(
        f"module 'repro.service' has no attribute {name!r}")


__all__ = [
    "SCHEMA_VERSION", "PointSpec", "PointResult", "SchemaError",
    "SweepRequest", "decode_line", "encode_line",
    "Broker", "BrokerHandle", "ServiceConfig", "serve",
    "serve_background", "Client", "ServiceError",
]
