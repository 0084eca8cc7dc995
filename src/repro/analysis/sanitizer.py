"""Runtime DES sanitizer: causality, leak and shared-stats checking.

Enabled per simulator (``Simulator(sanitize=True)``) or globally
(``REPRO_SANITIZE=1``).  The sanitizer is **observation-only**: it never
changes event ordering, timing, or floating-point arithmetic, so a
sanitized run is bit-identical to a normal run (see EXPERIMENTS.md,
"Sanitized runs").  Its hooks live exclusively on cold paths — object
construction and kernel error branches — so even wall-clock overhead is
negligible.

Checks, reported as structured :class:`Violation` records inside a
:class:`SanitizerReport`:

* **causality** — an event scheduled in the past or popped behind the
  clock (recorded at the kernel's existing error branches, right before
  the :class:`~repro.sim.core.SimulationError` raise);
* **event-leak** — heap entries never processed when the simulation is
  finalized (timeouts/events scheduled but abandoned);
* **resource-leak** — a :class:`~repro.sim.resources.Resource` finishing
  with held slots (an acquire whose release never ran);
* **blocked-putter** — a producer still blocked on a full
  Store/ByteFifo/PacketFifo at the end (data accepted by the model but
  never drained);
* **channel-backlog** — a :class:`~repro.sim.channel.Channel` whose
  serializer is still busy past the final clock (in-flight transfer never
  delivered);
* **process-leak** — a process still pending that is *not* parked on a
  consumer-side wait (idle ``get()`` on an empty queue is the normal rest
  state of the card's service loops and is never flagged);
* **stats-cross-process** — mutation of a guarded stats object (see
  :meth:`Sanitizer.guard_stats`) from a different OS process: with the
  fork-based parallel runner such writes silently vanish in the parent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = [
    "Violation",
    "SanitizerReport",
    "Sanitizer",
    "SanitizerError",
    "collect_reports",
    "reset_registry",
]


class SanitizerError(RuntimeError):
    """Raised when a sanitizer guard is violated (cross-process mutation)."""


@dataclass(frozen=True)
class Violation:
    """One structured sanitizer finding."""

    kind: str  # causality | event-leak | resource-leak | blocked-putter |
    # channel-backlog | process-leak | stats-cross-process
    message: str
    time: float  # sim.now when detected
    details: dict = field(default_factory=dict)

    def render(self) -> str:
        """Single-line diagnostic."""
        return f"[{self.kind}] t={self.time:g}: {self.message}"


@dataclass
class SanitizerReport:
    """End-of-simulation summary produced by :meth:`Sanitizer.finalize`."""

    violations: list[Violation]
    events_processed: int
    pending_heap_events: int
    pending_processes: int
    idle_consumers: int
    resources_tracked: int
    containers_tracked: int
    channels_tracked: int
    aborted: bool

    @property
    def ok(self) -> bool:
        """True when the run finished with zero violations."""
        return not self.violations

    def render(self) -> str:
        """Human-readable multi-line summary."""
        head = (
            f"SanitizerReport: {len(self.violations)} violation(s), "
            f"{self.events_processed} events, "
            f"{self.pending_heap_events} pending heap entries, "
            f"{self.pending_processes} pending processes "
            f"({self.idle_consumers} idle consumers)"
            + (" [aborted]" if self.aborted else "")
        )
        return "\n".join([head] + ["  " + v.render() for v in self.violations])


#: Every sanitizer constructed since the last reset (the CLI's collection
#: point for experiment runs that build simulators internally).
_REGISTRY: list["Sanitizer"] = []


def reset_registry() -> None:
    """Forget all sanitizers constructed so far."""
    _REGISTRY.clear()


def collect_reports() -> list[SanitizerReport]:
    """Finalize and return a report for every registered sanitizer."""
    reports = [s.finalize() for s in _REGISTRY]
    _REGISTRY.clear()
    return reports


class Sanitizer:
    """Per-simulator instrumentation state.

    Constructed by :class:`~repro.sim.core.Simulator` when sanitizing;
    model primitives (resources, FIFOs, channels) self-register at
    construction time through the ``register_*`` hooks.
    """

    def __init__(self, sim: Any):
        self.sim = sim
        self.origin_pid = os.getpid()
        self.violations: list[Violation] = []
        self.aborted = False
        self._resources: list[Any] = []
        self._containers: list[Any] = []
        self._channels: list[Any] = []
        self._processes: list[Any] = []
        self._report: Optional[SanitizerReport] = None
        _REGISTRY.append(self)

    # -- registration hooks (cold paths: object construction) ----------------

    def register_resource(self, resource: Any) -> None:
        """Track a Resource for end-of-run held-slot checking."""
        self._resources.append(resource)

    def register_container(self, container: Any) -> None:
        """Track a Store/ByteFifo/PacketFifo for blocked-putter checking."""
        self._containers.append(container)

    def register_channel(self, channel: Any) -> None:
        """Track a Channel for end-of-run backlog checking."""
        self._channels.append(channel)

    def register_process(self, process: Any) -> None:
        """Track a Process for end-of-run stall classification."""
        self._processes.append(process)

    # -- kernel error-branch hooks -------------------------------------------

    def record_causality(self, scheduled_t: float, now: float, what: str) -> None:
        """Record a causality violation (called just before the kernel
        raises its own SimulationError, so behaviour is unchanged)."""
        self.violations.append(
            Violation(
                "causality",
                f"{what}: t={scheduled_t!r} behind clock {now!r}",
                now,
                {"scheduled_t": scheduled_t, "now": now},
            )
        )

    def mark_aborted(self) -> None:
        """An exception escaped run(); skip end-state checks at finalize."""
        self.aborted = True

    # -- shared-stats guard ----------------------------------------------------

    def guard_stats(self, stats: Any, getpid: Callable[[], int] = os.getpid):
        """Wrap *stats* so mutations from another OS process raise.

        With the fork-based parallel experiment runner, a worker mutating a
        parent-owned stats object updates its private copy-on-write page —
        the write silently vanishes.  The guard turns that into a loud
        :class:`SanitizerError` in the offending process (and a recorded
        violation when it happens in the owning process's registry).
        """
        return _GuardedStats(stats, self, getpid)

    # -- finalize ----------------------------------------------------------------

    def finalize(self) -> SanitizerReport:
        """Run end-of-simulation checks and freeze the report (idempotent)."""
        if self._report is not None:
            return self._report
        sim = self.sim
        violations = list(self.violations)
        heap = sim.pending_entries()  # sorted by (t, seq)
        pending_procs = [p for p in self._processes if p.is_alive]
        idle_consumers = 0

        if not self.aborted:
            if heap:
                with_waiters = sum(1 for _, _, ev in heap if ev.callbacks)
                violations.append(
                    Violation(
                        "event-leak",
                        f"{len(heap)} scheduled event(s) never processed "
                        f"({with_waiters} with waiters); earliest due at "
                        f"t={heap[0][0]:g}",
                        sim.now,
                        {"count": len(heap), "with_waiters": with_waiters},
                    )
                )
            for res in self._resources:
                if res.in_use > 0:
                    violations.append(
                        Violation(
                            "resource-leak",
                            f"resource {res.name!r} ends with {res.in_use} "
                            f"held slot(s) (acquire without release)",
                            sim.now,
                            {"resource": res.name, "in_use": res.in_use},
                        )
                    )
            for c in self._containers:
                n_blocked = len(getattr(c, "_putters", ()))
                if n_blocked:
                    violations.append(
                        Violation(
                            "blocked-putter",
                            f"{type(c).__name__} {getattr(c, 'name', '')!r} ends "
                            f"with {n_blocked} blocked producer(s)",
                            sim.now,
                            {"container": getattr(c, "name", ""), "count": n_blocked},
                        )
                    )
            for ch in self._channels:
                if ch._free_at > sim.now + 1e-9:
                    violations.append(
                        Violation(
                            "channel-backlog",
                            f"channel {ch.name!r} serializer busy until "
                            f"t={ch._free_at:g}, past end of run",
                            sim.now,
                            {"channel": ch.name, "free_at": ch._free_at},
                        )
                    )
            heap_events = [entry[2] for entry in heap]
            consumer_waits = self._consumer_wait_events()
            for proc in pending_procs:
                if self._is_idle_wait(proc._waiting_on, heap_events, consumer_waits):
                    idle_consumers += 1
                else:
                    violations.append(
                        Violation(
                            "process-leak",
                            f"process {proc.name!r} still pending, waiting on "
                            f"{proc._waiting_on!r} which can never fire",
                            sim.now,
                            {"process": proc.name},
                        )
                    )

        self._report = SanitizerReport(
            violations=violations,
            events_processed=sim.events_processed,
            pending_heap_events=len(heap),
            pending_processes=len(pending_procs),
            idle_consumers=idle_consumers,
            resources_tracked=len(self._resources),
            containers_tracked=len(self._containers),
            channels_tracked=len(self._channels),
            aborted=self.aborted,
        )
        return self._report

    def _consumer_wait_events(self) -> list[Any]:
        """Events parked in consumer-side queues: Store/PacketFifo getters
        (plain events), ByteFifo getters (tuples), Resource waiters."""
        waits: list[Any] = []
        for c in self._containers:
            for entry in getattr(c, "_getters", ()):
                waits.append(entry[0] if isinstance(entry, tuple) else entry)
        for res in self._resources:
            waits.extend(res._waiters)
        return waits

    def _is_idle_wait(self, target: Any, heap_events: list, consumer_waits: list) -> bool:
        """True when a pending process is in a legitimate rest state.

        Waiting on a heap entry is legitimate too (the leftover is already
        reported once as an event-leak; no double count per process).
        Composite AllOf/AnyOf waits are classified through their pending
        constituents.
        """
        if target is None:
            return True  # start event still in the heap: covered by event-leak
        if any(target is ev for ev in heap_events):
            return True
        if any(target is ev for ev in consumer_waits):
            return True
        events = getattr(target, "events", None)
        if events is not None:  # AllOf/AnyOf composite
            return all(
                ev.processed or self._is_idle_wait(ev, heap_events, consumer_waits)
                for ev in events
            )
        return False


class _GuardedStats:
    """Attribute/method proxy enforcing single-process stats mutation."""

    __slots__ = ("_target", "_sanitizer", "_getpid")

    def __init__(self, target: Any, sanitizer: Sanitizer, getpid: Callable[[], int]):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_sanitizer", sanitizer)
        object.__setattr__(self, "_getpid", getpid)

    def _check(self, action: str) -> None:
        san = object.__getattribute__(self, "_sanitizer")
        pid = object.__getattribute__(self, "_getpid")()
        if pid != san.origin_pid:
            san.violations.append(
                Violation(
                    "stats-cross-process",
                    f"stats {action} from pid {pid} (owner pid "
                    f"{san.origin_pid}); route updates through sim.stats in "
                    "the owning process",
                    getattr(san.sim, "now", 0.0),
                    {"pid": pid, "owner_pid": san.origin_pid, "action": action},
                )
            )
            raise SanitizerError(
                f"cross-process stats {action}: pid {pid} != owner "
                f"{san.origin_pid}; the write would be lost with the "
                "fork-based parallel runner"
            )

    def __getattr__(self, name: str) -> Any:
        attr = getattr(object.__getattribute__(self, "_target"), name)
        if callable(attr):
            check = object.__getattribute__(self, "_check")

            def _guarded(*args, **kwargs):
                check(f"call {name}()")
                return attr(*args, **kwargs)

            return _guarded
        return attr

    def __setattr__(self, name: str, value: Any) -> None:
        object.__getattribute__(self, "_check")(f"write .{name}")
        setattr(object.__getattribute__(self, "_target"), name, value)
