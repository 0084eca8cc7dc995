"""Degraded mode: a sick NIC's GPU PUTs bounce through host memory.

:meth:`~repro.apenet.rdma.ApenetEndpoint.put` stages each GPU source into
a host bounce buffer and posts a host PUT.  A bounce buffer is reused only
after the PUT that last read it has completed locally, so back-to-back
degraded PUTs never overwrite bytes an earlier one has yet to send.
"""

from repro.apenet import BufferKind
from repro.bench.microbench import make_cluster
from repro.recovery import RecoveryPolicy
from repro.sim.stats import FaultStats
from repro.units import kib


def test_back_to_back_degraded_puts_keep_their_own_bytes():
    policy = RecoveryPolicy(degrade_nios_stalls=1, degrade_tlp_replays=1)
    sim, cluster = make_cluster(2, 1, recovery=policy)
    sick = FaultStats()
    sick.nios_stalls_by_site["n0.ape.nios"] = 1
    cluster.recovery.fault_stats = sick
    n0, n1 = cluster.nodes
    n = kib(256)
    srcs = [n0.gpu.alloc(n) for _ in range(2)]
    dsts = [n1.gpu.alloc(n) for _ in range(2)]
    for fill, src in enumerate(srcs, start=1):
        src.data[:] = fill

    def proc():
        for dst in dsts:
            yield from n1.endpoint.register(dst.addr, n)
        for src, dst in zip(srcs, dsts):
            yield from n0.endpoint.put(1, src.addr, dst.addr, n, src_kind=BufferKind.GPU)
        for _ in dsts:
            yield from n1.endpoint.wait_event()

    sim.run_process(proc())
    assert cluster.recovery.stats.degraded_puts == 2
    for fill, dst in enumerate(dsts, start=1):
        assert (dst.data == fill).all()
