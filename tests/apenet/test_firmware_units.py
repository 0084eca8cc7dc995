"""Unit tests for the card's firmware data structures: Nios II, BUF_LIST,
V2P tables."""

import pytest

from repro.apenet import BufferKind, BufList, NiosII, PageMap, RegisteredBuffer
from repro.apenet.v2p import HOST_PAGE_SIZE
from repro.obs import TraceSession
from repro.sim import Simulator
from repro.units import us


# ---------------------------------------------------------------------------
# Nios II
# ---------------------------------------------------------------------------


def test_nios_serializes_tasks():
    sim = Simulator()
    nios = NiosII(sim)
    ends = []

    def task(tag, cost):
        yield from nios.run(cost, tag)
        ends.append((tag, sim.now))

    sim.process(task("rx", us(3)))
    sim.process(task("gpu_tx", us(1)))
    sim.run()
    assert ends == [("rx", us(3)), ("gpu_tx", us(4))]


def _nios_costs(session):
    """``(span name, cost)`` of every ``nios:<kind>`` span, in order."""
    return [
        (rec["name"], rec["args"]["cost"])
        for rec in session.events
        if rec["ph"] == "X" and rec["name"].startswith("nios:")
    ]


def test_nios_accounting_by_kind():
    """Per-kind busy time is the cost of the ``nios:<kind>`` spans."""
    session = TraceSession()
    with session.activate():
        sim = Simulator()
        nios = NiosII(sim)

        def tasks():
            yield from nios.run(us(2), "rx")
            yield from nios.run(us(2), "rx")
            yield from nios.run(us(1), "gpu_tx")

        sim.run_process(tasks())
    costs = _nios_costs(session)
    assert costs == [("nios:rx", us(2)), ("nios:rx", us(2)), ("nios:gpu_tx", us(1))]
    # Busy for the whole run.
    assert sum(cost for _, cost in costs) == pytest.approx(sim.now)


def test_nios_zero_cost_is_free():
    session = TraceSession()
    with session.activate():
        sim = Simulator()
        nios = NiosII(sim)

        def t():
            yield from nios.run(0.0, "noop")
            return sim.now

        assert sim.run_process(t()) == 0.0
    assert _nios_costs(session) == []


# ---------------------------------------------------------------------------
# BUF_LIST
# ---------------------------------------------------------------------------


def _entry(vaddr, nbytes, kind=BufferKind.HOST):
    return RegisteredBuffer(vaddr, nbytes, kind)


def test_buflist_lookup_counts_visits():
    bl = BufList()
    for i in range(5):
        bl.register(_entry(i * 0x10000, 0x1000))
    entry, visited = bl.lookup(4 * 0x10000 + 10)
    assert entry.vaddr == 4 * 0x10000
    assert visited == 5  # linear scan cost driver


def test_buflist_validation_failure_returns_none():
    bl = BufList()
    bl.register(_entry(0x1000, 0x100))
    entry, visited = bl.lookup(0x2000)
    assert entry is None
    assert visited == 1
    # Range straddling the end of a registration fails too.
    entry, _ = bl.lookup(0x10f0, nbytes=0x20)
    assert entry is None


def test_buflist_rejects_overlap():
    bl = BufList()
    bl.register(_entry(0x1000, 0x1000))
    with pytest.raises(ValueError, match="overlaps"):
        bl.register(_entry(0x1800, 0x1000))


# ---------------------------------------------------------------------------
# Host V2P
# ---------------------------------------------------------------------------


def test_host_v2p_map_and_lookup():
    v2p = PageMap(HOST_PAGE_SIZE)
    added = v2p.map_range(0x1080, 3 * HOST_PAGE_SIZE)
    assert added == 4  # unaligned start covers an extra page
    assert v2p.map_range(0x1000, 4 * HOST_PAGE_SIZE) == 0  # a remap adds none
    assert v2p.is_mapped(0x1000) and v2p.is_mapped(0x4FFF)
    assert not v2p.is_mapped(0x5000)
