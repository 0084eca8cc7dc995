"""Unit tests for Channel, with latency and as a zero-latency rate limiter."""

import math

import pytest

from repro.sim import Channel, SimulationError, Simulator
from repro.units import GBps, us


def test_channel_serialization_plus_latency():
    sim = Simulator()
    ch = Channel(sim, bandwidth=GBps(1.0), latency=us(1))  # 1 B/ns, 1000 ns

    def proc():
        yield ch.transfer(500)
        return sim.now

    # 500 ns wire + 1000 ns latency.
    assert sim.run_process(proc()) == 1500.0


def test_channel_transfers_serialize_but_latency_pipelines():
    sim = Simulator()
    ch = Channel(sim, bandwidth=GBps(1.0), latency=us(1))
    arrivals = []

    def sender(tag, nbytes):
        yield ch.transfer(nbytes)
        arrivals.append((tag, sim.now))

    sim.process(sender("a", 1000))
    sim.process(sender("b", 1000))
    sim.run()
    # a: wire [0,1000] + 1000 latency -> 2000; b: wire [1000,2000] + 1000 -> 3000
    assert arrivals == [("a", 2000.0), ("b", 3000.0)]


def test_channel_zero_byte_control_message():
    sim = Simulator()
    ch = Channel(sim, bandwidth=GBps(2.0), latency=100.0)

    def proc():
        yield ch.transfer(0)
        return sim.now

    assert sim.run_process(proc()) == 100.0


def test_channel_bandwidth_accounting():
    sim = Simulator()
    ch = Channel(sim, bandwidth=GBps(1.0))
    done = []

    def proc():
        for _ in range(10):
            yield ch.transfer(1000)
            done.append(sim.now)

    sim.run_process(proc())
    # Back to back at 1 B/ns: each 1000-byte transfer lands 1000 ns after
    # the previous one, and the serializer was never idle.
    assert done == [1000.0 * k for k in range(1, 11)]


def test_transfer_fires_reserve_delay_after_the_call():
    sim = Simulator()
    ch = Channel(sim, bandwidth=GBps(0.5), latency=150.0)
    twin = Channel(sim, bandwidth=GBps(0.5), latency=150.0)
    fired = []

    def proc():
        yield sim.timeout(40.0)
        for nbytes in (700, 0, 64):
            ch.transfer(300)  # a backlog the next booking queues behind
            twin.reserve(300)
            due = sim.now + twin.reserve(nbytes)
            yield ch.transfer(nbytes)
            fired.append((sim.now, due))

    sim.run_process(proc())
    # The same bookings on twin channels: transfer() fires exactly the
    # delay reserve() returns after the call, backlog included.
    assert [now for now, _ in fired] == [due for _, due in fired]
    assert fired[0] == (2190.0, 2190.0)  # 40 + (300 + 700) / 0.5 + 150


def test_channel_never_exceeds_capacity():
    """Aggregate delivered rate can never beat the configured bandwidth."""
    sim = Simulator()
    ch = Channel(sim, bandwidth=GBps(0.5), latency=50.0)
    done = []

    def sender(n):
        yield ch.transfer(n)
        done.append((sim.now, n))

    total = 0
    for _ in range(20):
        sim.process(sender(4096))
        total += 4096
    sim.run()
    last_arrival = max(t for t, _ in done)
    # All 20 transfers serialized at 0.5 B/ns plus one latency.
    assert last_arrival == pytest.approx(total / 0.5 + 50.0)


def test_channel_invalid_parameters():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Channel(sim, bandwidth=0)
    with pytest.raises(SimulationError):
        Channel(sim, bandwidth=1.0, latency=-5)
    ch = Channel(sim, bandwidth=1.0)
    with pytest.raises(SimulationError):
        ch.transfer(-1)
    with pytest.raises(SimulationError, match="negative"):
        ch.reserve(-1)
    assert ch.reserve(0) == 0.0  # nothing was booked: no wait


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_channel_rejects_non_finite_bandwidth(bad):
    """Regression: NaN slipped past the `bandwidth <= 0` check (NaN compares
    false against everything) and produced NaN timestamps downstream."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        Channel(sim, bandwidth=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_channel_rejects_non_finite_latency(bad):
    sim = Simulator()
    with pytest.raises(SimulationError):
        Channel(sim, bandwidth=1.0, latency=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_rate_limiter_rejects_non_positive_or_non_finite_rate(bad):
    sim = Simulator()
    with pytest.raises(SimulationError):
        Channel(sim, bad)


def test_channel_backlog_reporting():
    """A new booking waits out the serialization queued ahead of it."""
    sim = Simulator()
    ch = Channel(sim, bandwidth=GBps(1.0))

    def proc():
        ch.transfer(1000)
        assert ch.reserve(0) == pytest.approx(1000.0)
        yield sim.timeout(400)
        assert ch.reserve(0) == pytest.approx(600.0)

    sim.run_process(proc())


def test_rate_limiter_sustained_rate():
    sim = Simulator()
    rl = Channel(sim, GBps(1.536))  # Fermi P2P read engine rate

    def proc():
        for _ in range(4):
            yield rl.transfer(4096)
        return sim.now

    elapsed = sim.run_process(proc())
    assert elapsed == pytest.approx(4 * 4096 / 1.536)


def test_rate_limiter_idle_periods_not_credited():
    """The limiter must not bank idle time (no burst above rate)."""
    sim = Simulator()
    rl = Channel(sim, GBps(1.0))

    def proc():
        yield sim.timeout(10_000)  # long idle
        t0 = sim.now
        yield rl.transfer(100)
        return sim.now - t0

    assert sim.run_process(proc()) == pytest.approx(100.0)
