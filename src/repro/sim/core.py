"""Discrete-event simulation kernel.

A small, deterministic, generator-coroutine event engine in the style of
SimPy, specialised for this project:

* the clock is a ``float`` in nanoseconds (see :mod:`repro.units`);
* event ordering is fully deterministic — ties at equal timestamps are broken
  by schedule order (a monotonically increasing sequence number), so a given
  seed always produces an identical trace;
* processes are plain generators that ``yield`` :class:`Event` objects.

Example
-------
>>> sim = Simulator()
>>> def proc(sim, log):
...     yield sim.timeout(10)
...     log.append(sim.now)
>>> log = []
>>> _ = sim.process(proc(sim, log))
>>> sim.run()
>>> log
[10.0]
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "DeadlockError",
    "kernel_event_count",
    "push_observer",
    "pop_observer",
    "active_observers",
]

_INF = float("inf")

# Cumulative events processed by every Simulator in this interpreter.  The
# benchmark runner samples this around an experiment to report event-count
# telemetry without touching the per-event hot path (the counters are
# updated in bulk when a run loop exits).
_KERNEL_STATS = {"events": 0}


def kernel_event_count() -> int:
    """Total events processed by all Simulators in this process so far."""
    return _KERNEL_STATS["events"]


# Active trace sessions (repro.obs.TraceSession), innermost last.  Like the
# sanitizer, observation is opt-in and observation-only: when the tuple is
# empty every Simulator carries ``_obs = None`` and the instrumented models
# pay exactly one attribute load + is-None test per probe site.  The kernel
# knows nothing about session internals — it only asks a session for a
# per-simulator scope at construction time.
_OBSERVERS: tuple = ()


def push_observer(session) -> None:
    """Activate *session*: Simulators created from now on report to it."""
    global _OBSERVERS
    _OBSERVERS = _OBSERVERS + (session,)


def pop_observer(session) -> None:
    """Deactivate *session* (removes the innermost matching entry)."""
    global _OBSERVERS
    for i in range(len(_OBSERVERS) - 1, -1, -1):
        if _OBSERVERS[i] is session:
            _OBSERVERS = _OBSERVERS[:i] + _OBSERVERS[i + 1 :]
            return
    raise SimulationError("pop_observer: session is not active")


def active_observers() -> tuple:
    """The currently active trace sessions (innermost last)."""
    return _OBSERVERS


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class DeadlockError(SimulationError):
    """A process (or set of processes) that should have finished never did."""


# Event lifecycle states.
_PENDING = 0  # created, not yet triggered
_TRIGGERED = 1  # scheduled for processing (value set)
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* with either :meth:`succeed` or :meth:`fail`;
    the kernel then runs its callbacks at the current simulation time.
    Waiting on an already-processed event resumes the waiter immediately
    (at the current time, not retroactively).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "_seq")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING
        self._seq = -1

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have processed yet)."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._state == _PENDING:
            raise SimulationError("event value accessed before trigger")
        return self._value

    # -- triggering ----------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        self.sim._push(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will raise it."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._ok = False
        self._value = exc
        self._state = _TRIGGERED
        self.sim._push(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "done"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    Timeouts are the kernel's hottest allocation (every Channel transfer,
    RateLimiter grant and firmware cost is one), so construction takes a
    dedicated scheduling path: the event is born triggered and goes
    straight onto the heap, skipping :meth:`Event.__init__` and
    :meth:`Simulator._push`.
    """

    __slots__ = ("delay", "_cancelled")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # One chained comparison rejects negative, NaN and +inf alike: any
        # of them would silently corrupt heap ordering (NaN compares false
        # against everything, so heappush would misplace the entry).
        if not 0.0 <= delay < _INF:
            if sim._sanitizer is not None:
                sim._sanitizer.record_causality(delay, sim.now, "timeout delay")
            raise SimulationError(
                f"timeout delay {delay!r} must be finite and non-negative: "
                "a negative delay would schedule into the past, and a "
                "NaN/inf delay would corrupt heap ordering"
            )
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.delay = delay
        self._cancelled = False
        self._state = _TRIGGERED
        seq = sim._seq + 1
        sim._seq = seq
        self._seq = seq
        heappush(sim._heap, (sim.now + delay, seq, self))

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has disarmed this timer."""
        return self._cancelled

    def cancel(self) -> bool:
        """Disarm the timer; returns True if it was still armed.

        The scheduled entry stays in the queue and pops as a no-op at its
        original time — this keeps event counts (and therefore every
        downstream seq number) identical whether or not a cancel happened
        before or after the deadline, which is what lets retransmission
        layers cancel freely without perturbing bit-identity.

        A timer some waiter currently ``yield``s on (or that an AllOf /
        AnyOf condition watches) must not be cancelled: the waiter would
        silently never resume.  Such cancels raise
        :class:`SimulationError`; fire-and-forget callbacks are dropped.
        """
        if self._state != _TRIGGERED or self._cancelled:
            return False
        for cb in self.callbacks:
            if isinstance(getattr(cb, "__self__", None), Event):
                raise SimulationError(
                    "cannot cancel a timeout that a process or condition "
                    "is waiting on: the waiter would never resume"
                )
        self.callbacks.clear()
        self._cancelled = True
        self._ok = True
        self._value = None
        return True


class Process(Event):
    """Wraps a generator; completes when the generator returns.

    The process is itself an event: other processes can ``yield`` it to
    join on its completion; its value is the generator's return value.
    """

    __slots__ = ("_gen", "_send", "_throw", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(f"process target must be a generator, got {gen!r}")
        self._gen = gen
        # Pre-bound for the resume hot path (one resume per processed event).
        self._send = gen.send
        self._throw = gen.throw
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        if sim._sanitizer is not None:
            sim._sanitizer.register_process(self)
        # Kick off at the current time.
        init = sim._wake_event(True, None)
        init.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._state == _PENDING

    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        try:
            if trigger._ok:
                target = self._send(trigger._value)
            else:
                target = self._throw(trigger._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # repro: noqa-SIM001 — crash boundary:
            # the exception is re-raised through the completion event (joiners
            # see it; with nobody joined the run loop re-raises it).
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target.sim is not self.sim:
            raise SimulationError("yielded event belongs to a different Simulator")
        self._waiting_on = target
        if target._state == _PROCESSED:
            # Already done: resume on the next kernel step at current time.
            wake = self.sim._wake_event(target._ok, target._value)
            wake.callbacks.append(self._resume)
        else:
            target.callbacks.append(self._resume)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different sims")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev._state == _PROCESSED:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _results(self) -> dict[Event, Any]:
        # Only events whose callbacks have run count as "fired": a Timeout is
        # born in the triggered state, but it has not happened yet.
        return {ev: ev._value for ev in self.events if ev._state == _PROCESSED}

    def _check(self, ev: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired; value = {event: value}."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self._state != _PENDING:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._results())


class AnyOf(_Condition):
    """Fires when the first constituent event fires; value = {event: value}."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self._state != _PENDING:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self.succeed(self._results())


class Simulator:
    """The event loop: a priority queue of (time, seq, event)."""

    # Slots: `sim.now` is read on every transfer/timeout across the whole
    # model, and slot access beats instance-dict lookup.
    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_running",
        "events_processed",
        "_sanitizer",
        "_obs",
    )

    def __init__(self, sanitize: Optional[bool] = None):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self.events_processed = 0  # total events this simulator has run
        # Observation-only runtime checking (repro.analysis.sanitizer).  All
        # hooks sit on cold paths, so sanitized runs are bit-identical.
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        if sanitize:
            from ..analysis.sanitizer import Sanitizer

            self._sanitizer = Sanitizer(self)
        else:
            self._sanitizer = None
        # Observation-only tracing (repro.obs).  A scope binds this simulator
        # to every active TraceSession; None when tracing is off, so probe
        # sites cost one attribute load + is-None test.
        if _OBSERVERS:
            if len(_OBSERVERS) == 1:
                self._obs = _OBSERVERS[0].scope_for(self)
            else:
                self._obs = _OBSERVERS[0].fanout_scope(self, _OBSERVERS)
        else:
            self._obs = None

    @property
    def obs(self):
        """The attached trace scope (see :mod:`repro.obs`), or None."""
        return self._obs

    @property
    def sanitizer(self):
        """The attached :class:`~repro.analysis.sanitizer.Sanitizer`, or None."""
        return self._sanitizer

    def sanitizer_report(self):
        """Finalize and return the sanitizer's report (None when disabled)."""
        return self._sanitizer.finalize() if self._sanitizer is not None else None

    # -- factories -------------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires *delay* ns from now."""
        return Timeout(self, delay, value)

    def _wake_event(self, ok: bool, value: Any) -> Event:
        """A pre-triggered event scheduled at the current time.

        Kernel-internal: backs the Process init/wake machinery.  Skips the
        delay guard of :meth:`_push` — a zero delay is always valid.
        """
        ev = Event(self)
        ev._ok = ok
        ev._value = value
        ev._state = _TRIGGERED
        seq = self._seq + 1
        self._seq = seq
        ev._seq = seq
        heappush(self._heap, (self.now, seq, ev))
        return ev

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register *gen* as a process; it starts at the current time."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that fires when all of *events* have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that fires when any of *events* fires."""
        return AnyOf(self, events)

    # -- kernel -----------------------------------------------------------------

    def _push(self, event: Event, delay: float = 0.0) -> None:
        if not 0.0 <= delay < _INF:
            if self._sanitizer is not None:
                self._sanitizer.record_causality(delay, self.now, "schedule delay")
            raise SimulationError(
                f"cannot schedule {event!r} with a negative delay or "
                f"non-finite delay ({delay!r}): it would corrupt heap ordering"
            )
        seq = self._seq + 1
        self._seq = seq
        event._seq = seq
        heappush(self._heap, (self.now + delay, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    def pending_count(self) -> int:
        """Number of events currently scheduled."""
        return len(self._heap)

    def pending_entries(self) -> list[tuple[float, int, Event]]:
        """Snapshot of pending ``(t, seq, event)`` entries, sorted.

        Used by the sanitizer's finalize and by diagnostics.
        """
        return sorted(self._heap)

    def _drain(self, until: Optional[float], watched: Optional[Event]) -> None:
        """The inlined hot loop behind :meth:`run` / :meth:`run_process`.

        Pops events in ``(time, seq)`` order with the heap and the pop
        pre-bound to locals, marks each event processed and runs its
        callbacks in place.  Stops when the queue drains, the next event
        lies beyond *until*, or *watched* leaves the pending state.
        """
        heap = self._heap
        pop = heappop
        now = self.now
        unconditional = until is None and watched is None
        n = 0
        try:
            while heap:
                if not unconditional:
                    if until is not None and heap[0][0] > until:
                        break
                    if watched is not None and watched._state != _PENDING:
                        break
                t, _, event = pop(heap)
                if t != now:
                    if t < now - 1e-9:
                        if self._sanitizer is not None:
                            self._sanitizer.record_causality(t, now, "event popped")
                        raise SimulationError(f"time went backwards: {t} < {now}")
                    self.now = now = t
                n += 1
                event._state = _PROCESSED
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
                elif not event._ok and isinstance(event, Process):
                    # Crashed with nobody joined: surface, don't swallow.
                    raise event._value
        finally:
            self.events_processed += n
            _KERNEL_STATS["events"] += n

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes *until*.

        When *until* is given the clock is left exactly at *until* (if the
        simulation got that far), matching SimPy semantics.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            if until is None:
                self._drain(None, None)
            else:
                if until < self.now:
                    raise SimulationError(f"until={until} is in the past (now={self.now})")
                self._drain(until, None)
                if self.now < until:
                    self.now = until
        except BaseException:
            # A run the model deliberately crashes (LinkFailure escalation,
            # process error) is not a clean end state; skip finalize checks.
            if self._sanitizer is not None:
                self._sanitizer.mark_aborted()
            raise
        finally:
            self._running = False

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Convenience: run *gen* to completion and return its value.

        Drives the whole simulation until the process finishes (other
        concurrent processes keep running while it does).
        """
        proc = self.process(gen, name)
        try:
            self._drain(None, proc)
        except BaseException:
            if self._sanitizer is not None:
                self._sanitizer.mark_aborted()
            raise
        if proc._state == _PENDING:
            raise DeadlockError(f"deadlock: process {proc.name!r} never finished")
        if not proc._ok:
            if self._sanitizer is not None:
                self._sanitizer.mark_aborted()
            raise proc._value
        return proc._value
