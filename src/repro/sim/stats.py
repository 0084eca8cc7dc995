"""Online statistics and the fault/recovery accounting built on them."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["OnlineStats", "percentile", "FaultStats", "RecoveryStats"]


class OnlineStats:
    """Welford online mean/variance with min/max tracking."""

    def __init__(self):
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, x: float) -> None:
        """Fold one sample into the statistics."""
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def extend(self, xs: Iterable[float]) -> None:
        """Fold many samples."""
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stddev(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover
        return f"OnlineStats(n={self.n}, mean={self.mean:.3g}, sd={self.stddev:.3g})"


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not samples:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q={q} out of [0, 100]")
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return xs[lo]
    frac = pos - lo
    return xs[lo] * (1 - frac) + xs[hi] * frac


class FaultStats:
    """Graceful-degradation accounting for fault-injected runs.

    Filled in by the fault-injection sites (:mod:`repro.faults`); exposes
    the numbers a chaos experiment reports: goodput vs raw wire traffic,
    retransmission counts, recovery latency, and every structured link
    failure.  Lives here (not in ``repro.faults``) so instrumentation
    consumers need only depend on the sim layer.
    """

    def __init__(self):
        # Torus links.
        self.payload_bytes = 0  # goodput numerator: payload delivered intact
        self.wire_bytes = 0  # raw wire traffic, retransmissions included
        self.retransmits = 0
        self.crc_errors = 0
        self.packets_dropped = 0
        self.recovery_latency = OnlineStats()  # ns, per recovered packet
        # PCIe.
        self.tlp_replays = 0
        self.tlp_replay_bytes = 0
        # Nios II.
        self.nios_stalls = 0
        self.nios_stall_time = 0.0
        # Per-site breakdowns, keyed by fault-site name.  The recovery
        # layer's degradation thresholds are per *node*, so aggregate
        # counters alone are not enough.
        self.tlp_replays_by_site: dict[str, int] = {}
        self.nios_stalls_by_site: dict[str, int] = {}
        # Escalations: one record per exhausted retry budget.
        self.link_failures: list[dict] = []

    def record_link_failure(self, **info) -> None:
        """Append one structured failure record (site, attempts, time, kind)."""
        self.link_failures.append(dict(info))

    def goodput_fraction(self) -> float:
        """Delivered payload bytes over raw wire bytes (1.0 when idle)."""
        if self.wire_bytes == 0:
            return 1.0
        return self.payload_bytes / self.wire_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultStats(goodput={self.goodput_fraction():.3f}, "
            f"retx={self.retransmits}, drops={self.packets_dropped}, "
            f"crc={self.crc_errors}, tlp_replays={self.tlp_replays}, "
            f"stalls={self.nios_stalls}, failures={len(self.link_failures)})"
        )


class RecoveryStats:
    """End-to-end recovery accounting (:mod:`repro.recovery`).

    Tracks the systemic-fault-awareness layer above link retransmission:
    dead-link detections, detour routing, end-to-end RDMA replays with
    duplicate suppression, and P2P -> host-staging degradation.  Like
    :class:`FaultStats` it lives in the sim layer so consumers (bench
    experiments, traces) need no dependency on ``repro.recovery``.
    """

    def __init__(self):
        # Failure detection / re-routing.
        self.link_deaths: list[dict] = []
        self.time_to_detect = OnlineStats()  # ns, kill -> marked dead
        self.packets_rerouted = 0
        self.packets_unreachable = 0
        # End-to-end RDMA transaction layer.
        self.replays = 0
        self.put_timeouts = 0
        self.duplicates_suppressed = 0
        self.replay_fragments_suppressed = 0
        self.unreachable_puts = 0
        self.time_to_recover = OnlineStats()  # ns, first post -> delivery, replayed PUTs only
        # P2P -> host-staging degradation.
        self.gpu_puts = 0
        self.degraded_puts = 0
        self.degradations: list[dict] = []

    def record_link_death(self, **info) -> None:
        """Append one dead-link record (site, coords, detect time, ...)."""
        self.link_deaths.append(dict(info))
        if "elapsed_ns" in info:
            self.time_to_detect.add(info["elapsed_ns"])

    def record_degradation(self, **info) -> None:
        """Append one P2P -> host-staging mode-switch record."""
        self.degradations.append(dict(info))

    def degraded_fraction(self) -> float:
        """Fraction of GPU-sourced PUTs that went via host staging."""
        if self.gpu_puts == 0:
            return 0.0
        return self.degraded_puts / self.gpu_puts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RecoveryStats(deaths={len(self.link_deaths)}, "
            f"rerouted={self.packets_rerouted}, replays={self.replays}, "
            f"dups={self.duplicates_suppressed}, "
            f"degraded={self.degraded_fraction():.3f})"
        )
