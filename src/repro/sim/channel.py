"""The bandwidth × latency transfer primitive.

A :class:`Channel` models a serialized medium (a PCIe direction, a torus
link, an internal bus): transfers are serialized at a fixed bandwidth and
each transfer additionally experiences a fixed propagation latency that
*overlaps* with following transfers (classic store-and-forward pipe).
With latency 0 it is a rate limiter: a device that absorbs or emits data
at a bounded sustained rate, such as the GPU's internal read engine
(Fig 3's 1536 MB/s) or a DMA engine's ceiling.
"""

from __future__ import annotations

import math

from .core import Event, SimulationError, Simulator, Timeout

__all__ = ["Channel"]


class Channel:
    """A serialized, unidirectional pipe with bandwidth and latency.

    ``transfer(nbytes)`` returns an event that fires when the *tail* of the
    message arrives at the far end: serialization time (``nbytes/bw``) is
    exclusive (transfers queue FIFO), propagation latency is pipelined.
    ``reserve(nbytes)`` books the same transfer and returns its delay.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "",
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
        # Time at which the serializer becomes free.
        self._free_at = 0.0
        if sim._sanitizer is not None:
            sim._sanitizer.register_channel(self)

    def reserve(self, nbytes: int) -> float:
        """Book *nbytes* on the serializer; return the delay until the tail
        arrives.

        The one booking of the serializer: :meth:`transfer` waits this
        delay on a Timeout, and a PCIe fabric chain waits it on the event
        heap itself.  Zero-byte transfers are legal (pure-latency control
        messages).
        """
        if nbytes < 0:
            raise SimulationError("negative transfer size")
        now = self.sim.now
        start = self._free_at
        if start < now:  # what max(now, start) gives, without the call
            start = now
        ser = nbytes / self.bandwidth
        self._free_at = start + ser
        done_at = start + ser + self.latency
        obs = self.sim._obs
        if obs is not None:
            # The completion time is known up front, so the span is recorded
            # retroactively: no extra events, traced runs stay bit-identical.
            obs.span_at(
                "sim", self.name or "channel", start, done_at, nbytes=nbytes
            )
        return done_at - now

    def transfer(self, nbytes: int) -> Event:
        """Send *nbytes*; the event fires when the tail arrives."""
        return Timeout(self.sim, self.reserve(nbytes))

