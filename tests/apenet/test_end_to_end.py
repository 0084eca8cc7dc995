"""End-to-end APEnet+ cluster tests: PUTs across the torus, all buffer combos."""

import numpy as np
import pytest

from repro.apenet import BufferKind
from repro.bench.microbench import make_cluster
from repro.gpu import KEPLER_K20
from repro.net import TorusShape, build_apenet_cluster
from repro.obs import TraceSession
from repro.sim import Simulator
from repro.units import kib, mib, us


def build(nx=2, ny=1, **cfg_kw):
    from repro.apenet import DEFAULT_CONFIG

    sim = Simulator()
    config = DEFAULT_CONFIG.with_(**cfg_kw) if cfg_kw else DEFAULT_CONFIG
    cluster = build_apenet_cluster(sim, TorusShape(nx, ny, 1), config)
    return sim, cluster


def test_cluster_composition():
    sim, cluster = build(4, 2)
    assert len(cluster) == 8
    # Cluster I detail: all Fermi 2050 but one 2070.
    names = [n.gpu.spec.name for n in cluster.nodes]
    assert names.count("Tesla C2070") == 1
    assert names.count("Tesla C2050") == 7
    # 32 directed links on a 4x2 torus.
    assert len(cluster.links) == 32


def test_node_gpu_is_the_one_its_runtime_and_card_hold():
    """One GPU per node, as in the paper's clusters: the runtime resolves
    device pointers to it and the card's GPU_P2P_TX reads it."""
    sim, cluster = build()
    for node in cluster.nodes:
        assert node.gpu is node.runtime.gpu is node.card.gpu
        buf = node.gpu.alloc(kib(4))
        assert node.runtime.locate(buf.addr) == (node.gpu, buf)
    assert cluster.nodes[0].gpu is not cluster.nodes[1].gpu


def test_host_to_host_put_delivers_data():
    sim, cluster = build()
    n0, n1 = cluster.nodes
    src = n0.runtime.host_alloc(kib(8))
    dst = n1.runtime.host_alloc(kib(8))
    src.data[:] = np.arange(kib(8), dtype=np.uint8) % 251

    def receiver():
        yield from n1.endpoint.register(dst.addr, kib(8))
        rec = yield from n1.endpoint.wait_event()
        return rec

    def sender():
        yield sim.timeout(us(5))  # let the receiver register
        local_done = yield from n0.endpoint.put(
            1, src.addr, dst.addr, kib(8), src_kind=BufferKind.HOST, tag="t1"
        )
        yield local_done

    recv_proc = sim.process(receiver())
    sim.process(sender())
    sim.run()
    rec = recv_proc.value
    assert rec.nbytes == kib(8)
    assert rec.src_rank == 0
    assert rec.tag == "t1"
    np.testing.assert_array_equal(dst.data, src.data)


def test_gpu_to_gpu_put_delivers_data():
    sim, cluster = build()
    n0, n1 = cluster.nodes
    src = n0.gpu.alloc(kib(16))
    dst = n1.gpu.alloc(kib(16))
    src.data[:] = 7

    def receiver():
        yield from n1.endpoint.register(dst.addr, kib(16))
        rec = yield from n1.endpoint.wait_event()
        return rec

    def sender():
        yield sim.timeout(us(5))
        yield from n0.endpoint.register(src.addr, kib(16))
        done = yield from n0.endpoint.put(
            1, src.addr, dst.addr, kib(16), src_kind=BufferKind.GPU
        )
        yield done

    recv = sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert recv.value.nbytes == kib(16)
    assert dst.data.min() == 7


def test_host_to_gpu_and_gpu_to_host():
    sim, cluster = build()
    n0, n1 = cluster.nodes
    hsrc = n0.runtime.host_alloc(kib(4))
    gdst = n1.gpu.alloc(kib(4))
    gsrc = n1.gpu.alloc(kib(4))
    hdst = n0.runtime.host_alloc(kib(4))
    hsrc.data[:] = 5
    gsrc.data[:] = 9

    def node1():
        yield from n1.endpoint.register(gdst.addr, kib(4))
        yield from n1.endpoint.wait_event()  # H->G arrival
        done = yield from n1.endpoint.put(
            0, gsrc.addr, hdst.addr, kib(4), src_kind=BufferKind.GPU
        )
        yield done

    def node0():
        yield from n0.endpoint.register(hdst.addr, kib(4))
        yield sim.timeout(us(5))
        done = yield from n0.endpoint.put(
            1, hsrc.addr, gdst.addr, kib(4), src_kind=BufferKind.HOST
        )
        yield done
        yield from n0.endpoint.wait_event()  # G->H arrival

    sim.process(node0())
    sim.process(node1())
    sim.run()
    assert gdst.data.min() == 5
    assert hdst.data.min() == 9


def test_unregistered_destination_drops_packets():
    session = TraceSession()
    with session.activate():
        sim, cluster = build()
        n0, n1 = cluster.nodes
        src = n0.runtime.host_alloc(kib(4))

        def sender():
            done = yield from n0.endpoint.put(
                1, src.addr, 0x5_0000_0000, kib(4), src_kind=BufferKind.HOST
            )
            yield done
            yield sim.timeout(us(50))

        sim.run_process(sender())
    # The firmware drops the one packet: nothing is written or delivered.
    drops = [r for r in session.events if r["name"] == "rx_drop"]
    assert [r["args"]["nbytes"] for r in drops] == [kib(4)]
    assert not any(r["name"] == "rx_write" for r in session.events)
    assert len(n1.endpoint.events) == 0


def test_loopback_put_to_self():
    sim, cluster = build()
    n0 = cluster.nodes[0]
    src = n0.runtime.host_alloc(kib(4))
    dst = n0.runtime.host_alloc(kib(4))
    src.data[:] = 3

    def proc():
        yield from n0.endpoint.register(dst.addr, kib(4))
        done = yield from n0.endpoint.put(
            0, src.addr, dst.addr, kib(4), src_kind=BufferKind.HOST
        )
        yield done
        rec = yield from n0.endpoint.wait_event()
        return rec

    rec = sim.run_process(proc())
    assert rec.nbytes == kib(4)
    assert dst.data.min() == 3


def test_multi_hop_route_through_torus():
    session = TraceSession()
    with session.activate():
        sim, cluster = build(4, 2)
        n0 = cluster.nodes[0]
        n5 = cluster.nodes[5]  # coord (1,1): 2 hops from (0,0)
        src = n0.runtime.host_alloc(kib(4))
        dst = n5.runtime.host_alloc(kib(4))
        src.data[:] = 77

        def proc():
            yield from n5.endpoint.register(dst.addr, kib(4))
            done = yield from n0.endpoint.put(
                5, src.addr, dst.addr, kib(4), src_kind=BufferKind.HOST
            )
            yield done
            yield sim.timeout(us(50))

        sim.run_process(proc())
    assert dst.data.min() == 77
    # The intermediate node forwarded the packet but did not deliver it:
    # one of its links sent it, and nothing entered its RX FIFO.
    mid_rank = cluster.shape.rank((1, 0, 0))
    mid = cluster.nodes[mid_rank]
    assert sum(link.packets_sent for link in mid.card.router.links.values()) == 1
    rx_level = mid.card.rx.fifo.name + ".level"
    assert not any(r["name"] == rx_level for r in session.events)


def test_put_without_kind_flag_costs_pointer_query():
    sim, cluster = build()
    n0, n1 = cluster.nodes
    src = n0.runtime.host_alloc(256)
    dst = n1.runtime.host_alloc(256)

    def run(with_flag):
        t0 = sim.now

        def proc():
            kw = {"src_kind": BufferKind.HOST} if with_flag else {}
            yield from n0.endpoint.put(1, src.addr, dst.addr, 256, **kw)
            return sim.now - t0

        return sim.run_process(proc())

    t_flag = run(True)
    t_query = run(False)
    assert t_query - t_flag == pytest.approx(
        n0.runtime.costs.attribute_query_cost, rel=0.01
    )


def test_gpu_source_auto_registers_mapping():
    sim, cluster = build()
    n0, n1 = cluster.nodes
    src = n0.gpu.alloc(kib(8))
    dst = n1.runtime.host_alloc(kib(8))

    def proc():
        yield from n1.endpoint.register(dst.addr, kib(8))
        assert not n0.card.gpu_v2p.is_mapped(src.addr)
        done = yield from n0.endpoint.put(
            1, src.addr, dst.addr, kib(8), src_kind=BufferKind.GPU
        )
        yield done
        yield sim.timeout(us(100))

    sim.run_process(proc())
    # "the buffer mapping is automatically done, if necessary" (§IV.A)
    assert n0.card.gpu_v2p.is_mapped(src.addr)


def test_registration_charges_newly_mapped_pages():
    from repro.apenet.rdma import (
        _REGISTER_BASE_COST,
        _REGISTER_GPU_PAGE_COST,
        _REGISTER_HOST_PAGE_COST,
    )
    from repro.apenet.v2p import HOST_PAGE_SIZE
    from repro.gpu import GPU_PAGE_SIZE

    sim, cluster = build()
    node = cluster.nodes[0]
    gpu_a, gpu_b = (node.gpu.alloc(3 * GPU_PAGE_SIZE + 5) for _ in range(2))
    host = node.runtime.host_alloc(2 * HOST_PAGE_SIZE + 1)

    def cost(addr, nbytes):
        t0 = sim.now
        yield from node.endpoint.register(addr, nbytes)
        return sim.now - t0

    def proc():
        costs = [(yield from cost(gpu_a.addr, gpu_a.size))]
        costs.append((yield from cost(host.addr, host.size)))
        # A GPU registration maps its whole buffer, so a later one for the
        # rest of that buffer installs, and pays for, no page.
        costs.append((yield from cost(gpu_b.addr, 8)))
        costs.append((yield from cost(gpu_b.addr + 8, gpu_b.size - 8)))
        return costs

    gpu_cost = _REGISTER_BASE_COST + 4 * _REGISTER_GPU_PAGE_COST
    assert sim.run_process(proc()) == pytest.approx([
        gpu_cost,
        _REGISTER_BASE_COST + 3 * _REGISTER_HOST_PAGE_COST,
        gpu_cost,
        _REGISTER_BASE_COST,
    ])


@pytest.mark.parametrize("kind", ["gpu", "host"])
@pytest.mark.parametrize(
    "nbytes, match", [(mib(1), "overruns its buffer"), (0, "positive size")]
)
def test_registration_outside_its_buffer_is_refused(kind, nbytes, match):
    """BUF_LIST admits only registered memory: a registration that runs
    past the end of the buffer at its address, or covers no byte of it,
    raises at the call, and nothing is registered."""
    sim, cluster = build()
    node = cluster.nodes[1]
    buf = node.gpu.alloc(kib(4)) if kind == "gpu" else node.runtime.host_alloc(kib(4))
    entries = len(node.card.buflist)

    def proc():
        yield from node.endpoint.register(buf.addr, nbytes)

    with pytest.raises(ValueError, match=match):
        sim.run_process(proc())
    assert len(node.card.buflist) == entries
    assert not node.card.gpu_v2p.is_mapped(buf.addr)


def test_large_transfer_conservation():
    """1 MiB G-G: every byte arrives exactly once."""
    sim, cluster = build()
    n0, n1 = cluster.nodes
    n = mib(1)
    src = n0.gpu.alloc(n)
    dst = n1.gpu.alloc(n)
    rng = np.random.default_rng(42)
    src.data[:] = rng.integers(0, 256, n, dtype=np.uint8)

    def proc():
        yield from n1.endpoint.register(dst.addr, n)
        yield from n0.endpoint.register(src.addr, n)
        done = yield from n0.endpoint.put(1, src.addr, dst.addr, n, src_kind=BufferKind.GPU)
        yield done
        rec = yield from n1.endpoint.wait_event()
        return rec

    # Run sender and receiver logic in one process (register first).
    rec = sim.run_process(proc())
    np.testing.assert_array_equal(dst.data, src.data)
    # One completion for the whole message, and no other.
    assert rec.nbytes == n
    assert len(n1.endpoint.events) == 0


def test_host_put_sends_the_bytes_it_read_before_local_completion():
    """Once put's local completion fires, the source buffer may be reused."""
    sim, cluster = build()
    n0, n1 = cluster.nodes
    src = n0.runtime.host_alloc(kib(16))
    dst = n1.runtime.host_alloc(kib(16))
    src.data[:] = 1

    def proc():
        yield from n1.endpoint.register(dst.addr, kib(16))
        done = yield from n0.endpoint.put(
            1, src.addr, dst.addr, kib(16), src_kind=BufferKind.HOST
        )
        yield done
        src.data[:] = 2  # refill, as HSG does on this signal
        yield from n1.endpoint.wait_event()

    sim.run_process(proc())
    assert (dst.data == 1).all()


@pytest.mark.parametrize(
    "kind, overrides",
    [
        (BufferKind.HOST, {}),
        (BufferKind.GPU, {}),
        (BufferKind.GPU, {"gpu_spec": KEPLER_K20, "gpu_tx_method": "bar1"}),
    ],
    ids=["host", "gpu-p2p", "gpu-bar1-kepler"],
)
def test_put_between_untracked_buffers_is_timing_only(kind, overrides):
    sim, cluster = make_cluster(2, 1, **overrides)
    n0, n1 = cluster.nodes
    if kind is BufferKind.GPU:
        src, dst = n0.gpu.alloc(kib(16)), n1.gpu.alloc(kib(16))
    else:
        src, dst = n0.runtime.host_alloc(kib(16)), n1.runtime.host_alloc(kib(16))

    def proc():
        yield from n1.endpoint.register(dst.addr, kib(16))
        yield from n0.endpoint.register(src.addr, kib(16))
        done = yield from n0.endpoint.put(1, src.addr, dst.addr, kib(16), src_kind=kind)
        yield done
        rec = yield from n1.endpoint.wait_event()
        return rec

    assert sim.run_process(proc()).nbytes == kib(16)
    # Neither side was ever written: pure timing, no arrays built.
    assert src._data is None
    assert dst._data is None
