"""Instrumentation: bandwidth meters and structured event traces.

In-model measurement helpers (windowed bandwidth meters, per-flow event
logs) that experiments read programmatically to produce their Fig 3/4
curves.  Distinct from :mod:`repro.obs`, the cross-cutting observability
layer: these objects are part of a model's wiring and affect nothing
when unused, while ``repro.obs`` taps existing components externally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from .core import Simulator

__all__ = ["BandwidthMeter", "TraceRecord", "TraceLog"]


class BandwidthMeter:
    """Records (time, bytes) samples and reports average rates.

    Attach one wherever data crosses a boundary of interest::

        meter.record(packet.size)

    ``average()`` reports total bytes over the full observation span;
    ``average_between(t0, t1)`` restricts to a window (useful to discard
    warm-up).
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self.samples: list[tuple[float, int]] = []
        self.total_bytes = 0
        self._first_t: Optional[float] = None
        self._last_t: Optional[float] = None

    def record(self, nbytes: int) -> None:
        """Record *nbytes* crossing the measured boundary at the current time."""
        t = self.sim.now
        self.samples.append((t, nbytes))
        self.total_bytes += nbytes
        if self._first_t is None:
            self._first_t = t
        self._last_t = t

    @property
    def span(self) -> float:
        """Time between first and last sample."""
        if self._first_t is None or self._last_t is None:
            return 0.0
        return self._last_t - self._first_t

    def average(self, since: float = 0.0) -> float:
        """Average bandwidth (bytes/ns) from *since* until now."""
        duration = self.sim.now - since
        if duration <= 0:
            return 0.0
        nbytes = sum(n for t, n in self.samples if t >= since)
        return nbytes / duration

    def average_between(self, t0: float, t1: float) -> float:
        """Average bandwidth (bytes/ns) over the window [t0, t1]."""
        if t1 <= t0:
            return 0.0
        nbytes = sum(n for t, n in self.samples if t0 <= t <= t1)
        return nbytes / (t1 - t0)

    def steady_state(self, skip_fraction: float = 0.25) -> float:
        """Average after discarding the first *skip_fraction* of samples.

        Used by bandwidth benchmarks to ignore pipeline fill effects.
        """
        if not self.samples:
            return 0.0
        k = int(len(self.samples) * skip_fraction)
        kept = self.samples[k:]
        if len(kept) < 2:
            return self.average()
        t0 = kept[0][0]
        t1 = kept[-1][0]
        if t1 <= t0:
            return self.average()
        nbytes = sum(n for _, n in kept[1:])  # first sample marks window start
        return nbytes / (t1 - t0)


@dataclass
class TraceRecord:
    """One structured trace entry."""

    time: float
    source: str
    kind: str
    info: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.info.items())
        return f"[{self.time:12.1f}ns] {self.source:<20s} {self.kind:<16s} {extras}"


class TraceLog:
    """An append-only structured log; disabled by default (zero-cost)."""

    def __init__(self, sim: Simulator, enabled: bool = False, capacity: int = 1_000_000):
        self.sim = sim
        self.enabled = enabled
        self.capacity = capacity
        self.records: list[TraceRecord] = []

    def emit(self, source: str, kind: str, **info: Any) -> None:
        """Append a record if tracing is enabled."""
        if not self.enabled or len(self.records) >= self.capacity:
            return
        self.records.append(TraceRecord(self.sim.now, source, kind, info))

    def filter(self, source: Optional[str] = None, kind: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate records matching the given source and/or kind."""
        for rec in self.records:
            if source is not None and rec.source != source:
                continue
            if kind is not None and rec.kind != kind:
                continue
            yield rec

    def clear(self) -> None:
        """Drop all records."""
        self.records.clear()
