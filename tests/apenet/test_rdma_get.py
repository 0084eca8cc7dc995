"""Tests for the RDMA GET extension (the read half of the RDMA model)."""

import numpy as np
import pytest

from repro.bench.microbench import make_cluster
from repro.units import kib, us


def setup_pair(remote_gpu=True, nbytes=kib(8)):
    sim, cluster = make_cluster(2, 1)
    a, b = cluster.nodes
    if remote_gpu:
        remote = b.gpu.alloc(nbytes)
    else:
        remote = b.runtime.host_alloc(nbytes)
    local = a.runtime.host_alloc(nbytes)
    return sim, cluster, a, b, remote, local


@pytest.mark.parametrize("remote_gpu", [True, False])
def test_get_fetches_remote_data(remote_gpu):
    sim, cluster, a, b, remote, local = setup_pair(remote_gpu)
    remote.data[:] = np.arange(kib(8), dtype=np.uint8) % 201

    def proc():
        yield from b.endpoint.register(remote.addr, kib(8))
        yield from a.endpoint.register(local.addr, kib(8))
        rec = yield from a.endpoint.get(1, remote.addr, local.addr, kib(8))
        return rec

    rec = sim.run_process(proc())
    np.testing.assert_array_equal(local.data, remote.data)
    assert rec.nbytes == kib(8)
    # The request and its data are protocol traffic: the GET's record is
    # its only completion, and neither application event queue holds one.
    assert len(a.endpoint.events) == len(b.endpoint.events) == 0


def test_get_into_gpu_destination():
    sim, cluster = make_cluster(2, 1)
    a, b = cluster.nodes
    remote = b.runtime.host_alloc(kib(4))
    remote.data[:] = 9
    local = a.gpu.alloc(kib(4))

    def proc():
        yield from b.endpoint.register(remote.addr, kib(4))
        yield from a.endpoint.register(local.addr, kib(4))
        yield from a.endpoint.get(1, remote.addr, local.addr, kib(4))

    sim.run_process(proc())
    assert local.data.min() == 9


def test_get_latency_is_about_one_round_trip():
    """GET = request one way + PUT back: ~2x the one-way PUT latency."""
    sim, cluster, a, b, remote, local = setup_pair(remote_gpu=False, nbytes=64)

    def proc():
        yield from b.endpoint.register(remote.addr, 64)
        yield from a.endpoint.register(local.addr, 64)
        t0 = sim.now
        yield from a.endpoint.get(1, remote.addr, local.addr, 32)
        return sim.now - t0

    elapsed = sim.run_process(proc())
    assert us(10) < elapsed < us(22)


def test_get_from_unregistered_remote_is_dropped():
    """Invalid GETs vanish (like any unvalidated packet); the requester
    would time out — here we just confirm nothing arrives."""
    sim, cluster, a, b, remote, local = setup_pair(remote_gpu=False)
    state = {}

    def proc():
        # remote NOT registered
        yield from a.endpoint.register(local.addr, kib(8))
        arrival = sim.process(getter())
        yield sim.timeout(us(200))
        state["done"] = arrival.processed

    def getter():
        yield from a.endpoint.get(1, remote.addr, local.addr, kib(8))

    sim.run_process(proc())
    assert state["done"] is False  # still waiting: the GET went nowhere


def test_concurrent_gets_route_to_right_waiters():
    sim, cluster = make_cluster(2, 1)
    a, b = cluster.nodes
    r1 = b.runtime.host_alloc(kib(4))
    r2 = b.runtime.host_alloc(kib(4))
    r1.data[:] = 1
    r2.data[:] = 2
    l1 = a.runtime.host_alloc(kib(4))
    l2 = a.runtime.host_alloc(kib(4))
    done = []

    def setup_then_get():
        yield from b.endpoint.register(r1.addr, kib(4))
        yield from b.endpoint.register(r2.addr, kib(4))
        yield from a.endpoint.register(l1.addr, kib(4))
        yield from a.endpoint.register(l2.addr, kib(4))
        g1 = sim.process(one_get(r1, l1))
        g2 = sim.process(one_get(r2, l2))
        yield sim.all_of([g1, g2])

    def one_get(remote, local):
        yield from a.endpoint.get(1, remote.addr, local.addr, kib(4))
        done.append(local)

    sim.run_process(setup_then_get())
    assert len(done) == 2
    assert l1.data.min() == 1 and l1.data.max() == 1
    assert l2.data.min() == 2 and l2.data.max() == 2


def test_get_requires_linked_peers():
    from repro.apenet import ApenetCard, ApenetEndpoint
    from repro.cuda import CudaRuntime
    from repro.gpu import FERMI_2050, GPUDevice
    from repro.net.topology import RouteTable, TorusShape
    from repro.pcie import plx_platform
    from repro.sim import Simulator

    sim = Simulator()
    plat = plx_platform(sim)
    gpu = GPUDevice(sim, "gpu0", FERMI_2050)
    plat.attach(gpu, "gpu")
    rt = CudaRuntime(sim, plat, gpu)
    card = ApenetCard(sim, "solo", (0, 0, 0), RouteTable(TorusShape(1, 1, 1)), gpu)
    plat.attach(card, "nic")
    ep = ApenetEndpoint(card, rt)
    with pytest.raises(RuntimeError, match="link_peers"):
        # get() is a generator: the error surfaces on first step.
        next(ep.get(0, 0x1000, 0x2000, 64))
