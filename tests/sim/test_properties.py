"""Property-based tests of kernel invariants (hypothesis)."""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import TraceSession
from repro.sim import ByteFifo, Channel, PacketFifo, Resource, Simulator


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=50)
def test_clock_is_monotonic(delays):
    """The simulation clock never goes backwards for any delay mix."""
    sim = Simulator()
    observed = []

    def proc(d):
        yield sim.timeout(d)
        observed.append(sim.now)

    for d in delays:
        sim.process(proc(d))
    sim.run()
    # The kernel processes events in time order, so appends are sorted.
    assert observed == sorted(observed)
    assert sim.now == max(delays)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=40),
    capacity=st.integers(min_value=64, max_value=256),
)
@settings(max_examples=50)
def test_bytefifo_conserves_bytes(sizes, capacity):
    """Everything put into a ByteFifo comes out; its ``.level`` track never
    exceeds capacity."""
    session = TraceSession()
    with session.activate():
        sim = Simulator()
        fifo = ByteFifo(sim, capacity=capacity, name="fifo")
        stored, taken = [], []

        def producer():
            for n in sizes:
                stored.append((yield fifo.put(n)))

        def consumer():
            for n in sizes:
                taken.append((yield fifo.get(n)))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
    assert stored == taken == sizes
    assert fifo.level == 0
    levels = [
        rec["value"]
        for rec in session.events
        if rec["ph"] == "C" and rec["name"] == "fifo.level"
    ]
    assert max(levels) <= capacity


@dataclass
class _Pkt:
    size: int
    seq: int


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=128), min_size=1, max_size=30),
    capacity=st.integers(min_value=128, max_value=512),
)
@settings(max_examples=50)
def test_packetfifo_preserves_order_and_counts(sizes, capacity):
    """Packets come out exactly once, in order, regardless of backpressure."""
    sim = Simulator()
    fifo = PacketFifo(sim, capacity=capacity)
    out = []

    def producer():
        for i, n in enumerate(sizes):
            yield fifo.put(_Pkt(n, i))

    def consumer():
        for _ in sizes:
            pkt = yield fifo.get()
            out.append(pkt.seq)
            yield sim.timeout(1)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert out == list(range(len(sizes)))
    assert fifo.level == 0


@given(
    costs=st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=25),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50)
def test_resource_never_oversubscribed(costs, capacity):
    """At no instant do more than `capacity` holders exist."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    max_seen = 0

    def worker(cost):
        nonlocal max_seen
        yield res.acquire()
        max_seen = max(max_seen, res.in_use)
        yield sim.timeout(cost)
        res.release()

    for c in costs:
        sim.process(worker(c))
    sim.run()
    assert max_seen <= capacity
    assert res.in_use == 0


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=30),
    bw=st.floats(min_value=0.01, max_value=16.0),
    latency=st.floats(min_value=0, max_value=10_000),
)
@settings(max_examples=50)
def test_channel_aggregate_rate_bounded(sizes, bw, latency):
    """Total transfer completion time >= total bytes / bandwidth."""
    sim = Simulator()
    ch = Channel(sim, bandwidth=bw, latency=latency)
    finished = []

    def sender(n):
        yield ch.transfer(n)
        finished.append(sim.now)

    for n in sizes:
        sim.process(sender(n))
    sim.run()
    total = sum(sizes)
    assert max(finished) >= total / bw * (1 - 1e-12)
    # And the channel is work-conserving: exactly wire time + one latency.
    assert max(finished) == (
        __import__("pytest").approx(total / bw + latency, rel=1e-9)
    )
