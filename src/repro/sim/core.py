"""Discrete-event simulation kernel.

A small, deterministic, generator-coroutine event engine in the style of
SimPy, specialised for this project:

* the clock is a ``float`` in nanoseconds (see :mod:`repro.units`);
* event ordering is fully deterministic — ties at equal timestamps are broken
  by schedule order (a monotonically increasing sequence number), so a given
  seed always produces an identical trace;
* processes are plain generators that ``yield`` :class:`Event` objects;
* a :class:`Chain` is the cheap alternative to a process for a model's
  hottest transactions: plain-function stages that wait on the event heap
  itself, resumed by :meth:`Simulator.run` with one direct call.

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
    "Chain",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "DeadlockError",
    "kernel_event_count",
    "sanitize_default",
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


def sanitize_default() -> bool:
    """Whether a Simulator built with ``sanitize=None`` sanitizes: true when
    ``REPRO_SANITIZE`` is set to anything but ``""`` or ``"0"``."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


# The active trace session (a repro.obs.TraceSession), or None.  Like the
# sanitizer, observation is opt-in and observation-only: with no session
# every Simulator carries ``_obs = None`` and the instrumented models pay
# exactly one attribute load + is-None test per probe site.  The kernel
# knows nothing about session internals — it only asks the session for a
# per-simulator scope at construction time.  ``TraceSession.activate``
# swaps a session in and restores the previous one on exit.
_TRACE_SESSION = None


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

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING

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
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim.now, seq, self))
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
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim.now, seq, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "done"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.sim.now}>"


def _bad_delay(sim: "Simulator", delay: float) -> SimulationError:
    """Record a negative, NaN or infinite *delay* with the sanitizer and
    return the error to raise."""
    if sim._sanitizer is not None:
        sim._sanitizer.record_causality(delay, sim.now, "timeout delay")
    return SimulationError(
        f"timeout delay {delay!r} must be finite and non-negative: "
        "a negative delay would schedule into the past, and a "
        "NaN/inf delay would corrupt heap ordering"
    )


class Timeout(Event):
    """An event that fires after a fixed delay.

    Timeouts are the kernel's hottest allocation (every Channel transfer
    and firmware cost is one), so construction takes a dedicated
    scheduling path: the event is born triggered and goes straight onto
    the heap, skipping :meth:`Event.__init__`.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # One chained comparison rejects negative, NaN and +inf alike: any
        # of them would silently corrupt heap ordering (NaN compares false
        # against everything, so heappush would misplace the entry).
        if not 0.0 <= delay < _INF:
            raise _bad_delay(sim, delay)
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim.now + delay, seq, self))


class Process(Event):
    """Wraps a generator; completes when the generator returns.

    The process is itself an event: other processes can ``yield`` it to
    join on its completion; its value is the generator's return value.
    A process that returns while nothing has joined it is processed in
    place, with its value, and queues no completion: a later joiner
    resumes at the current instant, as on any processed event.  A crash
    always goes through the queue as a failed completion, and
    :meth:`Simulator.run` re-raises a failed event that pops with no
    waiter, so an unjoined crash surfaces from the run.
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
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # Nobody joined: a queued completion would run no callback.
                self._value = stop.value
                self._state = _PROCESSED
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


class Chain:
    """A model transaction that waits on the event heap itself.

    A chain is the kernel's cheap alternative to a :class:`Process` for
    a model's hottest transactions (the PCIe fabric's reads and writes).
    ``step`` holds the stage to run next, as a plain function of the
    chain: a bound method stored on the chain would be a reference cycle,
    left for the garbage collector.  A stage does what a generator would
    do up to its next ``yield`` and returns that wait as a delay, or None
    when the chain is over or has appended :meth:`_resume` to the
    callbacks of a real event it waits on.

    The protocol keeps every wait in the ``(time, seq)`` slot the
    generator's event would have taken:

    * construction pushes the chain with no delay, in the slot a
      Process's init event takes, so work already scheduled for this
      instant runs first;
    * after a stage returns a delay the chain pushes itself at
      ``now + delay``, in the slot a :class:`Timeout` would take, with
      Timeout's delay guard and sanitizer causality record;
    * a stage that raises (or returns a bad delay) ends the chain and
      fails a zero-delay event at that instant, which :meth:`Simulator.run`
      re-raises when it pops, as it does a crashed, unjoined Process.

    A queued chain is a heap entry like an event and counts as one
    event when it pops.  It has no callbacks list: its class-level
    ``callbacks`` is None, which is how :meth:`Simulator.run` tells it
    from an Event and resumes it with one direct call.  Only its own
    stage pushes it, so it is in the heap at most once.
    """

    __slots__ = ("sim", "step")

    #: Marks a chain for :meth:`Simulator.run` (an Event's is a list).
    callbacks = None

    def __init__(self, sim: "Simulator", step: Callable[["Chain"], Optional[float]]):
        self.sim = sim
        self.step = step
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim.now, seq, self))

    def _resume(self, _event: Optional[Event] = None) -> None:
        """Run the next stage and push the wait it returns."""
        sim = self.sim
        try:
            delay = self.step(self)
            if delay is None:
                return
            if not 0.0 <= delay < _INF:
                raise _bad_delay(sim, delay)
        except BaseException as exc:  # repro: noqa-SIM001 — crash boundary:
            # fail a zero-delay event at this instant, as a crashed Process
            # fails its completion; run() re-raises the exception when it pops.
            sim._wake_event(False, exc)
            return
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (sim.now + delay, seq, self))


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
        self._heap: list[tuple[float, int, Event | Chain]] = []
        self._seq = 0
        self._running = False
        self.events_processed = 0  # total events this simulator has run
        # Observation-only runtime checking (repro.analysis.sanitizer).  All
        # hooks sit on cold paths, so sanitized runs are bit-identical.
        if sanitize is None:
            sanitize = sanitize_default()
        if sanitize:
            from ..analysis.sanitizer import Sanitizer

            self._sanitizer = Sanitizer(self)
        else:
            self._sanitizer = None
        # Observation-only tracing (repro.obs).  A scope binds this simulator
        # to the active TraceSession; None when tracing is off, so probe
        # sites cost one attribute load + is-None test.
        session = _TRACE_SESSION
        self._obs = None if session is None else session.scope_for(self)

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

        Kernel-internal: backs the Process init/wake machinery and a
        Chain's crash boundary.
        """
        ev = Event(self)
        ev._ok = ok
        ev._value = value
        ev._state = _TRIGGERED
        seq = self._seq + 1
        self._seq = seq
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

    def pending_entries(self) -> list[tuple[float, int, Any]]:
        """Snapshot of pending ``(t, seq, entry)`` entries, sorted.

        Each entry is an :class:`Event` or a queued :class:`Chain`.  Used
        by the sanitizer's finalize.
        """
        return sorted(self._heap)

    def run(self) -> None:
        """Run until the event queue drains: the one way a run ends.

        The inlined hot loop pops entries in ``(time, seq)`` order with the
        heap and the pop pre-bound to locals.  It resumes a :class:`Chain`
        with one direct call; it marks an event processed and runs its
        callbacks in place.  A failed event that pops with no callbacks
        (a crashed Process nobody joined, a chain's crash, any failure
        nobody waits on) is re-raised: an error never vanishes.  Either
        kind of entry counts as one event.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = heappop
        now = self.now
        n = 0
        try:
            while heap:
                t, _, event = pop(heap)
                if t != now:
                    if t < now - 1e-9:
                        if self._sanitizer is not None:
                            self._sanitizer.record_causality(t, now, "event popped")
                        raise SimulationError(f"time went backwards: {t} < {now}")
                    self.now = now = t
                n += 1
                callbacks = event.callbacks
                if callbacks is None:  # a Chain: run its next stage
                    event._resume()
                    continue
                event._state = _PROCESSED
                if callbacks:
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
                elif not event._ok:
                    # Failed with nobody waiting: surface, don't swallow.
                    raise event._value
        except BaseException:
            # A run the model deliberately crashes (LinkFailure escalation,
            # process error) is not a clean end state; skip finalize checks.
            if self._sanitizer is not None:
                self._sanitizer.mark_aborted()
            raise
        finally:
            self.events_processed += n
            _KERNEL_STATS["events"] += n
            self._running = False

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Run *gen* and the rest of the simulation to the end; return its value.

        Other concurrent processes keep running after *gen* returns: the
        run ends, as every run does, when the event queue drains.  A
        process still pending then is a deadlock.  A nested call is
        rejected before *gen* is scheduled, so *gen* never runs.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        proc = self.process(gen, name)
        self.run()
        if proc._state == _PENDING:
            raise DeadlockError(f"deadlock: process {proc.name!r} never finished")
        return proc._value
