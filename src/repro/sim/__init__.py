"""Discrete-event simulation kernel for the APEnet+ reproduction.

Public surface:

* :class:`Simulator`, :class:`Event`, :class:`Timeout`, :class:`Process`,
  :class:`AllOf`, :class:`AnyOf` — the event engine (:mod:`repro.sim.core`),
  with :func:`kernel_event_count` and :func:`sanitize_default` (whether
  ``REPRO_SANITIZE`` sanitizes new simulators);
* :class:`Chain` — the kernel's callback chain: a transaction whose
  plain-function stages wait on the event heap itself, for the PCIe
  fabric's reads and writes;
* :class:`Resource`, :class:`Store`, :class:`ByteFifo`, :class:`PacketFifo`
  — shared-resource primitives (:mod:`repro.sim.resources`);
* :class:`Channel` — the bandwidth/latency pipe, and with latency 0 the
  rate limiter (:mod:`repro.sim.channel`);
* :class:`OnlineStats`, :class:`FaultStats`, :func:`percentile` —
  statistics (:mod:`repro.sim.stats`).

The event queue is one ``heapq`` list of ``(time, seq, entry)`` tuples,
each entry an event or a chain: ties at equal timestamps pop in schedule
order, so every run is deterministic.  ``Simulator.run`` resumes a
chain with one direct call and re-raises a failed event nobody waits on.
"""

from .channel import Channel
from .core import (
    AllOf,
    AnyOf,
    Chain,
    DeadlockError,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    kernel_event_count,
    sanitize_default,
)
from .resources import ByteFifo, PacketFifo, Resource, Store
from .stats import FaultStats, OnlineStats, percentile

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Chain",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "DeadlockError",
    "kernel_event_count",
    "sanitize_default",
    "Resource",
    "Store",
    "ByteFifo",
    "PacketFifo",
    "Channel",
    "OnlineStats",
    "FaultStats",
    "percentile",
]
