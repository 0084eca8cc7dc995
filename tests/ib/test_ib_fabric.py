"""Unit tests for the InfiniBand fabric and HCA model."""

import pytest

from repro.ib import IBFabric, build_ib_cluster
from repro.sim import Simulator
from repro.units import GBps, kib, mib, us


def test_fabric_lid_assignment():
    sim = Simulator()
    fab = IBFabric(sim)
    p0 = fab.attach(lambda m: None)
    p1 = fab.attach(lambda m: None)
    assert (p0.lid, p1.lid) == (0, 1)


def test_fabric_unknown_lid_rejected():
    sim = Simulator()
    fab = IBFabric(sim)
    fab.attach(lambda m: None)
    with pytest.raises(KeyError):
        fab.send(0, 7, 100, None)


def test_fabric_delivery_and_latency():
    sim = Simulator()
    fab = IBFabric(sim)
    got = []
    fab.attach(lambda m: got.append((m, sim.now)))
    fab.attach(lambda m: got.append((m, sim.now)))

    assert fab.send(0, 1, 4096, "payload") is None
    sim.run()
    msg, t = got[0]
    assert msg == "payload"
    # up wire + switch + down wire: 2*(4096/4 + 250) + 100.
    assert t == pytest.approx(2 * (4096 / 4.0 + 250) + 100)


def test_crossbar_is_nonblocking():
    """Distinct port pairs must not contend (unlike the torus)."""
    sim = Simulator()
    fab = IBFabric(sim)
    arrivals = {}
    for i in range(4):
        fab.attach(lambda m, i=i: arrivals.setdefault(i, sim.now))

    fab.send(0, 1, mib(1), None)
    fab.send(2, 3, mib(1), None)
    sim.run()
    # Both flows finish at the same time — no shared bottleneck.
    assert arrivals[1] == pytest.approx(arrivals[3])


def test_hca_multi_quantum_message_completes_once():
    sim = Simulator()
    cluster = build_ib_cluster(sim, 2)
    a, b = cluster.nodes
    received = []
    b.hca.on_receive = lambda m: received.append(m)
    src = a.runtime.host_alloc(kib(256))
    dst = b.runtime.host_alloc(kib(256))
    src.data[:] = 7

    def proc():
        yield a.hca.rdma_write(b.hca.lid, src.addr, dst.addr, kib(256), meta="m")
        yield sim.timeout(us(500))

    sim.run_process(proc())
    # 4 quanta of 64 KiB, but exactly ONE completion, after all landed.
    assert len(received) == 1
    assert dst.data.min() == 7


def test_hca_read_ceiling_limits_bandwidth():
    sim = Simulator()
    cluster = build_ib_cluster(sim, 2, pcie_lanes=4)
    a, b = cluster.nodes
    done = {}
    b.hca.on_receive = lambda m: done.setdefault("t", sim.now)
    src = a.runtime.host_alloc(mib(4))
    dst = b.runtime.host_alloc(mib(4))

    def proc():
        t0 = sim.now
        yield a.hca.rdma_write(b.hca.lid, src.addr, dst.addr, mib(4))
        yield sim.timeout(us(4000))
        return t0

    t0 = sim.run_process(proc())
    bw = mib(4) / (done["t"] - t0)
    assert bw <= GBps(1.55) * 1.02  # the x4 slot ceiling


def test_cluster_builder_validates_lanes():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_ib_cluster(sim, 2, pcie_lanes=2)


def test_node_holds_one_gpu_its_runtime_resolves():
    """Every node holds one M2075, the GPU its CUDA runtime resolves
    device pointers to."""
    sim = Simulator()
    cluster = build_ib_cluster(sim, 2)
    for node in cluster.nodes:
        assert node.gpu is node.runtime.gpu
        buf = node.gpu.alloc(kib(4))
        assert node.runtime.locate(buf.addr) == (node.gpu, buf)
    assert cluster.node(0).gpu is not cluster.node(1).gpu
