"""Plan serving: a long-lived asyncio daemon over the worker pool.

The serving stack, bottom-up:

* :mod:`repro.serve.protocol` — length-prefixed JSON frames over TCP
  or a unix socket; queries in OQL/KOLA text or the portable term
  wire form.
* :mod:`repro.serve.pool` — :class:`ServingPool`: request-pipelined
  dispatch into persistent optimizer workers with skeleton
  shard-affinity, bounded per-worker queues, dead-worker resubmission
  and graceful zero-drop recycling.
* :mod:`repro.serve.daemon` — :class:`PlanServer`: the asyncio
  front-end with admission control/load-shedding, out-of-order
  response streaming, and the ``stats`` endpoint.
* :mod:`repro.serve.client` — blocking and asyncio clients.
* :mod:`repro.serve.stats` — :func:`stats_snapshot`, the single
  aggregation path for per-worker counters (daemon endpoint,
  benchmark, CLI logging, and tests all share it).

See ``docs/serving.md`` for the protocol and deployment knobs.
"""

from importlib import import_module

#: Public name -> defining submodule.  Resolved lazily, so importing
#: one submodule (the batch layer imports only the pool) does not load
#: the asyncio daemon and clients.
_EXPORTS = {
    "AsyncServeClient": "client", "ServeClient": "client",
    "ServeResult": "client", "PlanServer": "daemon",
    "PoolClosedError": "pool", "ServingPool": "pool",
    "WorkerSaturatedError": "pool", "FrameError": "protocol",
    "MAX_FRAME": "protocol", "ServeError": "protocol",
    "ShedError": "protocol", "snapshot_summary": "stats",
    "stats_snapshot": "stats",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    return getattr(import_module(f"repro.serve.{module}"), name)
