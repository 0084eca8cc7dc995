"""Tests for RX-path backpressure and drop behaviour."""

import pytest

from repro.apenet import BufferKind
from repro.bench.microbench import make_cluster, unidirectional_bandwidth
from repro.obs import TraceSession
from repro.units import kib, mib, us


def test_rx_fifo_backpressures_into_network():
    """With a slow RX firmware, the sender's TX FIFO must fill up
    (credit backpressure all the way through the torus)."""
    session = TraceSession()
    with session.activate():
        sim, cluster = make_cluster(
            2, 1,
            rx_v2p_cost=us(20),  # cripple the receiver
        )
        a, b = cluster.nodes
        src = a.runtime.host_alloc(mib(1))
        dst = b.runtime.host_alloc(mib(1))

        def receiver():
            yield from b.endpoint.register(dst.addr, mib(1))
            yield from b.endpoint.wait_event()

        def sender():
            yield sim.timeout(us(10))
            done = yield from a.endpoint.put(
                1, src.addr, dst.addr, mib(1), src_kind=BufferKind.HOST
            )
            yield done

        rx = sim.process(receiver())
        sim.process(sender())
        sim.run()
    assert rx.processed

    def peak(fifo):
        return max(
            rec["value"]
            for rec in session.events
            if rec["ph"] == "C" and rec["name"] == fifo.name + ".level"
        )

    # Sender TX FIFO and receiver RX FIFO both hit their high-water marks.
    assert peak(a.card.router.inject_fifo) >= cluster.config.tx_fifo_bytes - 8192
    assert peak(b.card.rx.fifo) >= cluster.config.rx_fifo_bytes - 8192


def test_slow_rx_limits_delivered_bandwidth():
    r = unidirectional_bandwidth(
        BufferKind.HOST, BufferKind.HOST, mib(1), n_messages=4,
        rx_v2p_cost=us(10),
    )
    # ~12.1 us per 4 KiB packet -> ~340 MB/s.
    assert r.MBps < 400


def test_unregistered_packets_dropped_not_wedged():
    """Packets to unknown addresses vanish; later traffic still flows."""
    session = TraceSession()
    with session.activate():
        sim, cluster = make_cluster(2, 1)
        a, b = cluster.nodes
        src = a.runtime.host_alloc(kib(8))
        dst = b.runtime.host_alloc(kib(8))

        def proc():
            yield from b.endpoint.register(dst.addr, kib(8))
            # First: a put to an unregistered region (silently dropped).
            done = yield from a.endpoint.put(
                1, src.addr, 0x7_0000_0000, kib(8), src_kind=BufferKind.HOST
            )
            yield done
            # Then a good one.
            done = yield from a.endpoint.put(
                1, src.addr, dst.addr, kib(8), src_kind=BufferKind.HOST
            )
            yield done
            rec = yield from b.endpoint.wait_event()
            return rec

        rec = sim.run_process(proc())
    assert rec.nbytes == kib(8)
    names = [r["name"] for r in session.events]
    assert names.count("rx_drop") == 2  # the bad message's two packets
    assert names.count("rx_write") == 2  # the good one's, written to memory


def test_gpu_dest_costs_more_than_host_dest():
    """The P2P write-window switch penalty is visible per packet."""
    host = unidirectional_bandwidth(BufferKind.HOST, BufferKind.HOST, mib(1), n_messages=4).MBps
    gpu = unidirectional_bandwidth(BufferKind.HOST, BufferKind.GPU, mib(1), n_messages=4).MBps
    assert gpu < host
    assert gpu == pytest.approx(host * 0.87, rel=0.08)  # the ~10% of Fig 6
