"""Bandwidth × latency transfer primitives.

A :class:`Channel` models a serialized medium (a PCIe direction, a torus
link, an internal bus): transfers are serialized at a fixed bandwidth and
each transfer additionally experiences a fixed propagation latency that
*overlaps* with following transfers (classic store-and-forward pipe).

A :class:`RateLimiter` models a device that can absorb or emit data at a
bounded sustained rate without the notion of individual in-flight messages
(used for e.g. the GPU's internal read engine).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from .core import Event, SimulationError, Simulator

__all__ = ["Channel", "RateLimiter"]


class Channel:
    """A serialized, unidirectional pipe with bandwidth and latency.

    ``transfer(nbytes)`` returns an event that fires when the *tail* of the
    message arrives at the far end: serialization time (``nbytes/bw``) is
    exclusive (transfers queue FIFO), propagation latency is pipelined.

    If *deliver* is given, it is called with the transferred payload object
    at arrival time — convenient for wiring stages together without an
    explicit receiving process.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "",
        deliver: Optional[Callable[[Any], None]] = None,
    ):
        # `not (x > 0)` (rather than `x <= 0`) also rejects NaN, which
        # compares false against everything: a NaN bandwidth or latency
        # computed from bad calibration constants would otherwise poison
        # every transfer time silently.
        if not bandwidth > 0 or not math.isfinite(bandwidth):
            raise SimulationError(
                f"Channel bandwidth must be positive and finite, got {bandwidth!r}"
            )
        if not latency >= 0 or not math.isfinite(latency):
            raise SimulationError(
                f"Channel latency must be non-negative and finite, got {latency!r}"
            )
        self.sim = sim
        self.bandwidth = float(bandwidth)  # bytes/ns
        self.latency = float(latency)
        self.name = name
        self.deliver = deliver
        # Time at which the serializer becomes free.
        self._free_at = 0.0
        # Instrumentation
        self.total_bytes = 0
        self.total_transfers = 0
        self._busy_time = 0.0
        if sim._sanitizer is not None:
            sim._sanitizer.register_channel(self)

    def transfer(self, nbytes: int, payload: Any = None) -> Event:
        """Send *nbytes*; the event fires at delivery with value *payload*.

        Zero-byte transfers are legal (pure-latency control messages).
        """
        if nbytes < 0:
            raise SimulationError("negative transfer size")
        now = self.sim.now
        start = max(now, self._free_at)
        ser = nbytes / self.bandwidth
        self._free_at = start + ser
        self._busy_time += ser
        self.total_bytes += nbytes
        self.total_transfers += 1
        done_at = start + ser + self.latency
        obs = self.sim._obs
        if obs is not None:
            # The completion time is known up front, so the span is recorded
            # retroactively: no extra events, traced runs stay bit-identical.
            obs.span_at(
                "sim", self.name or "channel", start, done_at, nbytes=nbytes
            )
        ev = self.sim.timeout(done_at - now, payload)
        if self.deliver is not None:
            deliver = self.deliver

            def _cb(event: Event, _deliver=deliver) -> None:
                _deliver(event.value)

            ev.callbacks.append(_cb)
        return ev

    @property
    def backlog(self) -> float:
        """Seconds-of-wire currently queued ahead of a new transfer (ns)."""
        return max(0.0, self._free_at - self.sim.now)

    def utilization(self) -> float:
        """Fraction of elapsed time the serializer was busy."""
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self._busy_time / self.sim.now)


class RateLimiter:
    """Serializes work at a sustained byte rate, without latency.

    ``consume(nbytes)`` returns an event firing when the device has had
    enough rate-time to process the bytes.  Equivalent to a zero-latency
    :class:`Channel` but kept separate for intent and cheaper bookkeeping.
    """

    def __init__(self, sim: Simulator, rate: float, name: str = ""):
        if not rate > 0 or not math.isfinite(rate):
            raise SimulationError(
                f"RateLimiter rate must be positive and finite, got {rate!r}"
            )
        self.sim = sim
        self.rate = float(rate)  # bytes/ns
        self.name = name
        self._free_at = 0.0
        self.total_bytes = 0
        if sim._sanitizer is not None:
            sim._sanitizer.register_channel(self)

    def consume(self, nbytes: int, payload: Any = None) -> Event:
        """Occupy the device for ``nbytes/rate``; fires when done."""
        if nbytes < 0:
            raise SimulationError("negative consume size")
        now = self.sim.now
        start = max(now, self._free_at)
        self._free_at = start + nbytes / self.rate
        self.total_bytes += nbytes
        obs = self.sim._obs
        if obs is not None:
            obs.span_at(
                "sim", self.name or "rate", start, self._free_at, nbytes=nbytes
            )
        return self.sim.timeout(self._free_at - now, payload)

    @property
    def backlog(self) -> float:
        """Work queued ahead of new arrivals, in ns."""
        return max(0.0, self._free_at - self.sim.now)
