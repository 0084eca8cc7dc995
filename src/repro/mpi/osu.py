"""OSU micro-benchmark equivalents (OMB v3.6 style).

* :func:`osu_latency` — ping-pong, reports half round-trip (the paper's
  Fig 9 MVAPICH2 reference curve).
* :func:`osu_bandwidth` — windowed uni-directional bandwidth (64
  back-to-back isends per iteration, then a tiny ack — Fig 7's curve).

Buffers may live on the host or the GPU ("D D" mode in OMB terms).
"""

from __future__ import annotations

from ..ib.cluster import build_ib_cluster
from ..sim import Simulator
from ..units import us
from .comm import MpiWorld

__all__ = ["osu_latency", "osu_bandwidth", "make_mpi_pair"]

# osu_latency's ping-pong rounds, of which the first few are warm-up.
_LATENCY_ITERATIONS = 12
_LATENCY_SKIP = 2


def make_mpi_pair(
    pcie_lanes: int = 8,
    protocol_factory=None,
    n_nodes: int = 2,
):
    """Fresh two-node (default) IB cluster + MPI world."""
    sim = Simulator()
    cluster = build_ib_cluster(sim, n_nodes, pcie_lanes=pcie_lanes)
    world = MpiWorld(cluster, protocol_factory=protocol_factory)
    return sim, cluster, world


def _alloc(node, gpu: bool, nbytes: int) -> int:
    if gpu:
        return node.gpu.alloc(nbytes).addr
    return node.runtime.host_alloc(nbytes).addr


def osu_latency(msg_size: int, gpu_buffers: bool = True) -> float:
    """Half round-trip time in ns for *msg_size* messages (Cluster II, x8)."""
    sim, cluster, world = make_mpi_pair()
    a, b = world.endpoint(0), world.endpoint(1)
    buf_a = _alloc(cluster.node(0), gpu_buffers, msg_size)
    buf_b = _alloc(cluster.node(1), gpu_buffers, msg_size)
    rtts: list[float] = []

    def rank0():
        yield sim.timeout(us(5))
        for i in range(_LATENCY_ITERATIONS):
            t0 = sim.now
            yield from a.send(1, buf_a, msg_size, tag=("pp", i))
            yield from a.recv(1, buf_a, msg_size, tag=("pp", i, "r"))
            rtts.append(sim.now - t0)

    def rank1():
        for i in range(_LATENCY_ITERATIONS):
            yield from b.recv(0, buf_b, msg_size, tag=("pp", i))
            yield from b.send(0, buf_b, msg_size, tag=("pp", i, "r"))

    sim.process(rank1())
    sim.run_process(rank0())
    kept = rtts[_LATENCY_SKIP:]
    return sum(kept) / len(kept) / 2.0


def osu_bandwidth(
    msg_size: int,
    gpu_buffers: bool = True,
    window: int = 16,
    iterations: int = 4,
    pcie_lanes: int = 8,
) -> float:
    """Uni-directional bandwidth in bytes/ns (== GB/s)."""
    sim, cluster, world = make_mpi_pair(pcie_lanes)
    a, b = world.endpoint(0), world.endpoint(1)
    buf_a = _alloc(cluster.node(0), gpu_buffers, msg_size)
    buf_b = _alloc(cluster.node(1), gpu_buffers, msg_size)
    span = {}

    def rank0():
        yield sim.timeout(us(5))
        t0 = sim.now
        for it in range(iterations):
            reqs = []
            for w in range(window):
                r = yield from a.isend(1, buf_a, msg_size, tag=("bw", it, w))
                reqs.append(r)
            yield from a.wait_all(reqs)
            # Tiny ack closes the iteration.
            yield from a.recv(1, world.scratch(0), 4, tag=("ack", it))
        span["t"] = sim.now - t0

    def rank1():
        for it in range(iterations):
            reqs = []
            for w in range(window):
                r = yield from b.irecv(0, buf_b, msg_size, tag=("bw", it, w))
                reqs.append(r)
            yield from b.wait_all(reqs)
            yield from b.send(0, world.scratch(1), 4, tag=("ack", it))

    sim.process(rank1())
    sim.run_process(rank0())
    total = msg_size * window * iterations
    return total / span["t"]
