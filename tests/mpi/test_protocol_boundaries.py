"""Boundary and error-path tests for the MPI layer."""

import pytest

from repro.mpi import EAGER_THRESHOLD, MpiRequest, make_mpi_pair


def exchange(n, tag="b"):
    sim, cluster, world = make_mpi_pair()
    a, b = world.endpoint(0), world.endpoint(1)
    src = cluster.node(0).runtime.host_alloc(max(n, 1))
    dst = cluster.node(1).runtime.host_alloc(max(n, 1))
    src.data[:] = 123

    def r0():
        yield from a.send(1, src.addr, n, tag=tag)

    def r1():
        yield from b.recv(0, dst.addr, n, tag=tag)

    sim.process(r0())
    p = sim.process(r1())
    sim.run()
    assert p.processed
    return dst


def test_exactly_eager_threshold_uses_eager():
    dst = exchange(EAGER_THRESHOLD)
    assert dst.data.min() == 123


def test_one_past_threshold_uses_rendezvous():
    dst = exchange(EAGER_THRESHOLD + 1)
    assert dst.data.min() == 123


def test_single_byte_message():
    dst = exchange(1)
    assert dst.data[0] == 123


def test_request_requires_done_event():
    with pytest.raises(ValueError):
        MpiRequest("send", 0, 0, 10, done=None)


def test_many_outstanding_eager_messages():
    """More in-flight eager messages than bounce slots: credit rotation."""
    sim, cluster, world = make_mpi_pair()
    a, b = world.endpoint(0), world.endpoint(1)
    n_msgs = 40  # > the 16 per-peer slots
    srcs = [cluster.node(0).runtime.host_alloc(128) for _ in range(n_msgs)]
    dsts = [cluster.node(1).runtime.host_alloc(128) for _ in range(n_msgs)]
    for i, s in enumerate(srcs):
        s.data[:] = i

    def r0():
        reqs = []
        for i, s in enumerate(srcs):
            r = yield from a.isend(1, s.addr, 128, tag=("m", i))
            reqs.append(r)
        yield from a.wait_all(reqs)

    def r1():
        reqs = []
        for i, d in enumerate(dsts):
            r = yield from b.irecv(0, d.addr, 128, tag=("m", i))
            reqs.append(r)
        yield from b.wait_all(reqs)

    sim.process(r0())
    p = sim.process(r1())
    sim.run()
    assert p.processed
    for i, d in enumerate(dsts):
        assert d.data.min() == i % 256, f"message {i} corrupted"
