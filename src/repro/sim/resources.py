"""Shared-resource primitives for the simulation kernel.

* :class:`Resource` — a counted semaphore with FIFO queuing (models servers
  like the Nios II microcontroller or a DMA engine).
* :class:`Store` — an unbounded FIFO of Python objects.
* :class:`ByteFifo` — a byte-capacity FIFO with producer back-pressure; the
  workhorse for modelling hardware FIFOs (TX FIFO, link buffers) where only
  the *amount* of data matters.
* :class:`PacketFifo` — a byte-capacity FIFO of discrete packets (objects
  with a ``size`` attribute); producers block while the FIFO is full.

All wait operations return :class:`~repro.sim.core.Event` objects that a
process ``yield``\\ s on.  An operation that never waits and whose event no
caller reads — :meth:`Store.put`, :meth:`ByteFifo.fill` and
:meth:`ByteFifo.take` — returns none, so it queues nothing.  Queuing
disciplines are strictly FIFO, which keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .core import Event, SimulationError, Simulator

__all__ = ["Resource", "Store", "ByteFifo", "PacketFifo"]


class Resource:
    """A counted resource with FIFO-ordered acquisition.

    Usage inside a process::

        req = resource.acquire()
        yield req
        try:
            yield sim.timeout(cost)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        if sim._sanitizer is not None:
            sim._sanitizer.register_resource(self)

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    def acquire(self) -> Event:
        """Return an event that fires once a slot is held."""
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._grant(ev)
        else:
            self._waiters.append(ev)
        self._sample_obs()
        return ev

    def _grant(self, ev: Event) -> None:
        self._in_use += 1
        ev.succeed(self)

    def release(self) -> None:
        """Release one held slot (caller must actually hold one)."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        if self._waiters and self._in_use < self.capacity:
            self._grant(self._waiters.popleft())
        self._sample_obs()

    def _sample_obs(self) -> None:
        # Occupancy timeline for named resources (observation-only).
        obs = self.sim._obs
        if obs is not None and self.name:
            obs.counter("sim", self.name + ".in_use", float(self._in_use))
            obs.counter("sim", self.name + ".queue", float(len(self._waiters)))


class Store:
    """An unbounded FIFO of arbitrary objects."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        if sim._sanitizer is not None:
            sim._sanitizer.register_container(self)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Insert *item* and wake blocked getters, first in, first out.

        A put never waits, so it makes no event.
        """
        self._items.append(item)
        self._wake_getters()

    def get(self) -> Event:
        """Remove the oldest item; the event's value is the item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def _wake_getters(self) -> None:
        while self._getters and self._items:
            self._getters.popleft().succeed(self._items.popleft())


class ByteFifo:
    """Byte-granularity FIFO with capacity and producer back-pressure.

    ``put(n)`` completes once *n* bytes have been accepted (the bytes are
    reserved atomically, FIFO among producers); ``get(n)`` completes once
    *n* bytes have been drained.  ``fill(n)`` and ``take(n)`` are their
    event-free forms for a caller that guarantees the room or the bytes
    (a credit loop, a reserved window): they act at once, or raise
    :class:`~repro.sim.core.SimulationError` and change nothing.

    A ``put`` larger than the capacity is rejected: the caller must chunk.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise SimulationError("ByteFifo capacity must be >= 1")
        self.sim = sim
        self.capacity = int(capacity)
        self.name = name
        self._level = 0
        self._putters: Deque[tuple[Event, int]] = deque()
        self._getters: Deque[tuple[Event, int]] = deque()
        if sim._sanitizer is not None:
            sim._sanitizer.register_container(self)

    @property
    def level(self) -> int:
        """Bytes currently stored."""
        return self._level

    @property
    def free(self) -> int:
        """Bytes of remaining space."""
        return self.capacity - self._level

    def put(self, nbytes: int) -> Event:
        """Reserve *nbytes* of space; fires once the bytes are stored."""
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise SimulationError("put() needs a positive byte count")
        if nbytes > self.capacity:
            raise SimulationError(
                f"put({nbytes}) exceeds FIFO capacity {self.capacity}; chunk it"
            )
        ev = Event(self.sim)
        if not self._putters and nbytes <= self.capacity - self._level:
            # Uncontended fast path.  Bit-identical to queuing + _drain():
            # with no producer queued ahead, _drain's first step would
            # admit exactly this request (the head-putter admission is the
            # loop's first action and, by the drain-on-every-transition
            # invariant, a queued head putter can never currently fit), so
            # inlining the admission preserves the succeed order exactly.
            ev.succeed(nbytes)
            self._store(nbytes)
            return ev
        self._putters.append((ev, nbytes))
        self._drain()
        return ev

    def fill(self, nbytes: int) -> None:
        """Store *nbytes* now, with no event: ``put`` for a caller that
        guarantees the room.

        Wakes queued consumers exactly as an uncontended ``put`` would.
        Raises :class:`~repro.sim.core.SimulationError`, and changes
        nothing, unless the bytes fit now with no producer queued ahead.
        """
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise SimulationError("fill() needs a positive byte count")
        if self._putters or nbytes > self.capacity - self._level:
            raise SimulationError(
                f"fill({nbytes}) on {self.name!r}: {self.free} bytes free, "
                f"{len(self._putters)} producer(s) queued; the caller must "
                "guarantee the room"
            )
        self._store(nbytes)

    def get(self, nbytes: int) -> Event:
        """Remove exactly *nbytes*; fires when they have all been taken."""
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise SimulationError("get() needs a positive byte count")
        ev = Event(self.sim)
        if not self._getters and self._level >= nbytes:
            # Uncontended fast path (see put(); the symmetric argument —
            # a queued head putter cannot fit right now, so _drain would
            # serve this consumer first).
            ev.succeed(nbytes)
            self._remove(nbytes)
            return ev
        self._getters.append((ev, nbytes))
        self._drain()
        return ev

    def take(self, nbytes: int) -> None:
        """Remove *nbytes* now, with no event: ``get`` for a caller that
        guarantees the bytes.

        Admits queued producers exactly as an uncontended ``get`` would.
        Raises :class:`~repro.sim.core.SimulationError`, and changes
        nothing, unless the bytes are stored now with no consumer queued
        ahead.
        """
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise SimulationError("take() needs a positive byte count")
        if self._getters or nbytes > self._level:
            raise SimulationError(
                f"take({nbytes}) on {self.name!r}: {self._level} bytes stored, "
                f"{len(self._getters)} consumer(s) queued; the caller must "
                "guarantee the bytes"
            )
        self._remove(nbytes)

    def _store(self, nbytes: int) -> None:
        """Admit *nbytes* that fit now, then serve the queues."""
        level_before = self._level
        self._level += nbytes
        self._settle(level_before)

    def _remove(self, nbytes: int) -> None:
        """Drain *nbytes* that are stored now, then serve the queues."""
        level_before = self._level
        self._level -= nbytes
        self._settle(level_before)

    def _drain(self) -> None:
        self._settle(self._level)

    def _settle(self, level_before: int) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit head producer if it fits.
            if self._putters:
                ev, n = self._putters[0]
                if n <= self.capacity - self._level:
                    self._putters.popleft()
                    self._level += n
                    ev.succeed(n)
                    progressed = True
            # Serve head consumer if satisfiable.
            if self._getters:
                ev, n = self._getters[0]
                if self._level >= n:
                    self._getters.popleft()
                    self._level -= n
                    ev.succeed(n)
                    progressed = True
        if self._level != level_before:
            obs = self.sim._obs
            if obs is not None and self.name:
                obs.counter("sim", self.name + ".level", float(self._level))


class PacketFifo:
    """FIFO of packet objects bounded by total byte size.

    Packets must expose a ``size`` attribute (bytes).  ``put`` blocks while
    the FIFO lacks space for the whole packet; ``get`` pops the next packet.
    A single packet larger than the capacity is accepted only when the FIFO
    is completely empty (hardware store-and-forward FIFOs cannot do even
    that, but the TX paths in this project always chunk first — the escape
    hatch just keeps toy configurations from deadlocking).
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise SimulationError("PacketFifo capacity must be >= 1")
        self.sim = sim
        self.capacity = int(capacity)
        self.name = name
        self._level = 0
        self._items: Deque[Any] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()
        self._getters: Deque[Event] = deque()
        if sim._sanitizer is not None:
            sim._sanitizer.register_container(self)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def level(self) -> int:
        """Bytes currently stored."""
        return self._level

    @property
    def free(self) -> int:
        """Bytes of remaining space."""
        return self.capacity - self._level

    def _fits(self, packet: Any) -> bool:
        size = int(packet.size)
        if size <= self.capacity - self._level:
            return True
        return size > self.capacity and self._level == 0

    def put(self, packet: Any) -> Event:
        """Insert *packet*; fires once it is stored."""
        if int(packet.size) < 0:
            raise SimulationError("packet size must be non-negative")
        ev = Event(self.sim)
        if not self._putters and self._fits(packet):
            # Uncontended fast path — same argument as ByteFifo.put: a
            # queued head putter can never currently fit, so _drain would
            # admit this packet first anyway.  Succeed order is identical.
            level_before = self._level
            self._level += int(packet.size)
            self._items.append(packet)
            ev.succeed(packet)
            self._settle(level_before)
            return ev
        self._putters.append((ev, packet))
        self._drain()
        return ev

    def get(self) -> Event:
        """Pop the next packet; the event value is the packet."""
        ev = Event(self.sim)
        if not self._getters and self._items:
            # Uncontended fast path (see put()).
            level_before = self._level
            pkt = self._items.popleft()
            self._level -= int(pkt.size)
            ev.succeed(pkt)
            self._settle(level_before)
            return ev
        self._getters.append(ev)
        self._drain()
        return ev

    def _drain(self) -> None:
        self._settle(self._level)

    def _settle(self, level_before: int) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                ev, pkt = self._putters[0]
                if self._fits(pkt):
                    self._putters.popleft()
                    self._level += int(pkt.size)
                    self._items.append(pkt)
                    ev.succeed(pkt)
                    progressed = True
            if self._getters and self._items:
                ev = self._getters.popleft()
                pkt = self._items.popleft()
                self._level -= int(pkt.size)
                ev.succeed(pkt)
                progressed = True
        if self._level != level_before:
            obs = self.sim._obs
            if obs is not None and self.name:
                obs.counter("sim", self.name + ".level", float(self._level))
