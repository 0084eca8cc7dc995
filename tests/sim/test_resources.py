"""Unit tests for Resource, Store, ByteFifo and PacketFifo."""

from dataclasses import dataclass

import pytest

from repro.obs import TraceSession
from repro.sim import ByteFifo, PacketFifo, Resource, SimulationError, Simulator, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker(tag, cost):
        yield res.acquire()
        start = sim.now
        yield sim.timeout(cost)
        res.release()
        log.append((tag, start, sim.now))

    sim.process(worker("a", 10))
    sim.process(worker("b", 5))
    sim.run()
    assert log == [("a", 0.0, 10.0), ("b", 10.0, 15.0)]


def test_resource_capacity_two_allows_overlap():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []

    def worker(tag):
        yield res.acquire()
        yield sim.timeout(10)
        res.release()
        log.append((tag, sim.now))

    for tag in "abc":
        sim.process(worker(tag))
    sim.run()
    assert log == [("a", 10.0), ("b", 10.0), ("c", 20.0)]


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag):
        yield res.acquire()
        order.append(tag)
        yield sim.timeout(1)
        res.release()

    for tag in "abcdef":
        sim.process(worker(tag))
    sim.run()
    assert order == list("abcdef")


def test_resource_release_without_hold_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def _track(session, name):
    """The ``(time, value)`` samples of counter track *name*."""
    return [
        (rec["ts"], rec["value"])
        for rec in session.events
        if rec["ph"] == "C" and rec["name"] == name
    ]


def test_resource_utilization_accounting():
    """A named resource's busy time is its ``.in_use`` track: held for 30
    of the run's 100 ns."""
    session = TraceSession()
    with session.activate():
        sim = Simulator()
        res = Resource(sim, name="res")

        def worker():
            yield res.acquire()
            yield sim.timeout(30)
            res.release()
            yield sim.timeout(70)

        sim.process(worker())
        sim.run()
    assert sim.now == 100.0
    assert _track(session, "res.in_use") == [(0.0, 1.0), (30.0, 0.0)]


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)

    def producer():
        for i in range(3):
            store.put(i)
            yield sim.timeout(1)

    def consumer():
        got = []
        for _ in range(3):
            item = yield store.get()
            got.append(item)
        return got

    sim.process(producer())
    assert sim.run_process(consumer()) == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer():
        item = yield store.get()
        return (sim.now, item)

    def producer():
        yield sim.timeout(25)
        store.put("late")

    sim.process(producer())
    assert sim.run_process(consumer()) == (25.0, "late")


def test_store_put_makes_no_event_and_wakes_getters_in_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(tag):
        item = yield store.get()
        got.append((tag, item, sim.now))

    def producer():
        yield sim.timeout(7)
        assert [store.put(i) for i in range(3)] == [None] * 3

    for tag in "abc":
        sim.process(getter(tag))
    sim.process(producer())
    sim.run()
    assert got == [("a", 0, 7.0), ("b", 1, 7.0), ("c", 2, 7.0)]
    # Four start wakes, the timeout and the three getters' items.
    assert sim.events_processed == 8


# ---------------------------------------------------------------------------
# ByteFifo
# ---------------------------------------------------------------------------


def test_bytefifo_put_then_get():
    sim = Simulator()
    fifo = ByteFifo(sim, capacity=100)

    def proc():
        yield fifo.put(60)
        assert fifo.level == 60
        yield fifo.get(60)
        assert fifo.level == 0

    sim.run_process(proc())


def test_bytefifo_backpressure():
    sim = Simulator()
    fifo = ByteFifo(sim, capacity=100)
    events = []

    def producer():
        yield fifo.put(80)
        events.append(("put80", sim.now))
        yield fifo.put(80)  # only fits after consumer drains
        events.append(("put80b", sim.now))

    def consumer():
        yield sim.timeout(50)
        yield fifo.get(80)
        events.append(("got80", sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert events == [("put80", 0.0), ("got80", 50.0), ("put80b", 50.0)]


def test_bytefifo_get_blocks_until_enough_bytes():
    sim = Simulator()
    fifo = ByteFifo(sim, capacity=1000)

    def consumer():
        yield fifo.get(100)
        return sim.now

    def producer():
        yield sim.timeout(10)
        yield fifo.put(50)
        yield sim.timeout(10)
        yield fifo.put(50)

    sim.process(producer())
    assert sim.run_process(consumer()) == 20.0


def test_bytefifo_oversized_put_rejected():
    sim = Simulator()
    fifo = ByteFifo(sim, capacity=100)
    with pytest.raises(SimulationError, match="exceeds"):
        fifo.put(101)


def test_bytefifo_conservation_counters():
    """Every byte put comes out, and the ``.level`` track never passes
    the capacity."""
    session = TraceSession()
    with session.activate():
        sim = Simulator()
        fifo = ByteFifo(sim, capacity=64, name="fifo")
        stored, taken = [], []

        def producer():
            for _ in range(10):
                stored.append((yield fifo.put(32)))

        def consumer():
            for _ in range(10):
                taken.append((yield fifo.get(32)))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
    assert sum(stored) == sum(taken) == 320
    assert fifo.level == 0
    assert max(level for _, level in _track(session, "fifo.level")) <= 64


def _fill_wakes_getters(op):
    """Bytes arrive at t=5 through *op* while two consumers wait; a third
    process scheduled at t=5 before them logs too.  Each consumer logs
    the bytes its get delivered."""
    sim = Simulator()
    fifo = ByteFifo(sim, capacity=100)
    log = []

    def consumer(tag, n):
        got = yield fifo.get(n)
        log.append((tag, sim.now, fifo.level, got))

    def bystander():
        yield sim.timeout(5)
        log.append(("bystander", sim.now, fifo.level, None))

    def producer():
        yield sim.timeout(5)
        getattr(fifo, op)(70)  # put's event goes unread
        log.append(("producer", sim.now, fifo.level, None))

    sim.process(consumer("a", 30))
    sim.process(consumer("b", 40))
    sim.process(producer())
    sim.process(bystander())
    sim.run()
    return log


def test_bytefifo_fill_wakes_queued_getters_like_put():
    log = _fill_wakes_getters("fill")
    assert log == [
        ("producer", 5.0, 0, None),
        ("bystander", 5.0, 0, None),
        ("a", 5.0, 0, 30),
        ("b", 5.0, 0, 40),
    ]
    assert log == _fill_wakes_getters("put")


def _take_admits_putters(op):
    """Credit returns at t=5 through *op* while two producers wait on a
    full FIFO; a third process scheduled at t=5 before them logs too.
    Each producer logs the bytes its put stored."""
    sim = Simulator()
    fifo = ByteFifo(sim, capacity=100)
    fifo.put(100)
    log = []

    def producer(tag, n):
        stored = yield fifo.put(n)
        log.append((tag, sim.now, fifo.level, stored))

    def bystander():
        yield sim.timeout(5)
        log.append(("bystander", sim.now, fifo.level, None))

    def releaser():
        yield sim.timeout(5)
        getattr(fifo, op)(70)  # get's event goes unread
        log.append(("releaser", sim.now, fifo.level, None))

    sim.process(producer("a", 30))
    sim.process(producer("b", 40))
    sim.process(releaser())
    sim.process(bystander())
    sim.run()
    return log


def test_bytefifo_take_admits_queued_putters_like_get():
    log = _take_admits_putters("take")
    assert log == [
        ("releaser", 5.0, 100, None),
        ("bystander", 5.0, 100, None),
        ("a", 5.0, 100, 30),
        ("b", 5.0, 100, 40),
    ]
    assert log == _take_admits_putters("get")


def test_bytefifo_fill_and_take_raise_and_change_nothing():
    sim = Simulator()
    fifo = ByteFifo(sim, capacity=100)
    fifo.fill(80)

    def state():
        return (fifo.level, fifo.free)

    assert state() == (80, 20)
    for op, n in (("fill", 21), ("take", 81), ("fill", 0), ("take", -1)):
        with pytest.raises(SimulationError):
            getattr(fifo, op)(n)
        assert state() == (80, 20)
    # A queued producer or consumer is ahead: no cutting in, even though
    # the bytes would fit or are there.
    fifo.put(30)
    with pytest.raises(SimulationError, match="room"):
        fifo.fill(10)
    fifo.take(80)  # admits the queued put
    fifo.get(40)
    with pytest.raises(SimulationError, match="bytes"):
        fifo.take(10)
    assert state() == (30, 70)


def test_bytefifo_head_of_line_put_blocking():
    """A blocked head producer must block later producers (FIFO discipline)."""
    sim = Simulator()
    fifo = ByteFifo(sim, capacity=100)
    order = []

    def p1():
        yield fifo.put(90)
        yield fifo.put(90)  # blocks: only 10 free
        order.append("p1-second")

    def p2():
        yield sim.timeout(1)
        yield fifo.put(5)  # would fit, but must queue behind p1's put
        order.append("p2")

    def consumer():
        yield sim.timeout(10)
        yield fifo.get(90)

    sim.process(p1())
    sim.process(p2())
    sim.process(consumer())
    sim.run()
    assert order == ["p1-second", "p2"]


# ---------------------------------------------------------------------------
# PacketFifo
# ---------------------------------------------------------------------------


@dataclass
class Pkt:
    size: int
    tag: str = ""


def test_packetfifo_fifo_order():
    sim = Simulator()
    fifo = PacketFifo(sim, capacity=1000)

    def producer():
        for i in range(4):
            yield fifo.put(Pkt(10, f"p{i}"))

    def consumer():
        tags = []
        for _ in range(4):
            pkt = yield fifo.get()
            tags.append(pkt.tag)
        return tags

    sim.process(producer())
    assert sim.run_process(consumer()) == ["p0", "p1", "p2", "p3"]


def test_packetfifo_blocks_when_full():
    sim = Simulator()
    fifo = PacketFifo(sim, capacity=100)
    times = []

    def producer():
        yield fifo.put(Pkt(70))
        times.append(sim.now)
        yield fifo.put(Pkt(70))
        times.append(sim.now)

    def consumer():
        yield sim.timeout(33)
        yield fifo.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert times == [0.0, 33.0]


def test_packetfifo_oversized_packet_needs_empty_fifo():
    sim = Simulator()
    fifo = PacketFifo(sim, capacity=100)
    log = []

    def producer():
        yield fifo.put(Pkt(50, "small"))
        yield fifo.put(Pkt(200, "huge"))  # exceeds capacity: waits for empty
        log.append(sim.now)

    def consumer():
        yield sim.timeout(5)
        yield fifo.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert log == [5.0]
    assert fifo.level == 200


def test_packetfifo_level_tracks_sizes():
    sim = Simulator()
    fifo = PacketFifo(sim, capacity=1000)

    def proc():
        yield fifo.put(Pkt(100))
        yield fifo.put(Pkt(250))
        assert fifo.level == 350
        yield fifo.get()
        assert fifo.level == 250

    sim.run_process(proc())
