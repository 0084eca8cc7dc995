"""Tests for nodes with multiple GPUs behind one APEnet+ card."""


from repro.apenet import BufferKind
from repro.net import TorusShape, build_apenet_cluster
from repro.sim import Simulator
from repro.units import kib, us


def build():
    sim = Simulator()
    cluster = build_apenet_cluster(sim, TorusShape(2, 1, 1), gpus_per_node=2)
    return sim, cluster


def test_two_gpus_registered_with_card():
    sim, cluster = build()
    node = cluster.nodes[0]
    assert len(node.gpus) == 2
    assert len(node.card.gpus) == 2
    assert node.gpus[0].gmem_window.base != node.gpus[1].gmem_window.base


def test_put_from_second_gpu():
    sim, cluster = build()
    a, b = cluster.nodes
    src = a.gpus[1].alloc(kib(16))  # the SECOND GPU
    dst = b.gpus[0].alloc(kib(16))
    src.data[:] = 55

    def proc():
        yield from b.endpoint.register(dst.addr, kib(16))
        yield from a.endpoint.register(src.addr, kib(16))
        done = yield from a.endpoint.put(
            1, src.addr, dst.addr, kib(16), src_kind=BufferKind.GPU
        )
        yield done
        yield from b.endpoint.wait_event()

    sim.run_process(proc())
    assert dst.data.min() == 55
    # The V2P table for GPU index 1 was the one populated.
    assert a.card.gpu_v2p[1].is_mapped(src.addr)
    assert not a.card.gpu_v2p[0].is_mapped(src.addr)


def test_both_gpus_can_receive():
    sim, cluster = build()
    a, b = cluster.nodes
    src = a.runtime.host_alloc(kib(8))
    src.data[:] = 3
    d0 = b.gpus[0].alloc(kib(8))
    d1 = b.gpus[1].alloc(kib(8))

    def proc():
        yield from b.endpoint.register(d0.addr, kib(8))
        yield from b.endpoint.register(d1.addr, kib(8))
        for dst in (d0, d1):
            done = yield from a.endpoint.put(
                1, src.addr, dst.addr, kib(8), src_kind=BufferKind.HOST
            )
            yield done
        yield from b.endpoint.wait_event()
        yield from b.endpoint.wait_event()

    sim.run_process(proc())
    assert d0.data.min() == 3
    assert d1.data.min() == 3


def test_gpu_engines_share_one_card():
    """Concurrent puts from both GPUs serialize through one GPU_P2P_TX."""
    sim, cluster = build()
    a, b = cluster.nodes
    s0 = a.gpus[0].alloc(kib(64))
    s1 = a.gpus[1].alloc(kib(64))
    dst = b.runtime.host_alloc(kib(128))
    ends = []

    def receiver():
        yield from b.endpoint.register(dst.addr, kib(128))
        yield from b.endpoint.wait_event()
        ends.append(sim.now)
        yield from b.endpoint.wait_event()
        ends.append(sim.now)

    def sender():
        yield sim.timeout(us(10))
        yield from a.endpoint.register(s0.addr, kib(64))
        yield from a.endpoint.register(s1.addr, kib(64))
        d0 = yield from a.endpoint.put(
            1, s0.addr, dst.addr, kib(64), src_kind=BufferKind.GPU
        )
        d1 = yield from a.endpoint.put(
            1, s1.addr, dst.addr + kib(64), kib(64), src_kind=BufferKind.GPU
        )
        yield sim.all_of([d0, d1])

    rx = sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert rx.processed
    # Message 2 could only start after message 1 drained the shared engine.
    assert ends[1] - ends[0] > us(30)
