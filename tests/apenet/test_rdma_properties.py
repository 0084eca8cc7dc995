"""Property-based end-to-end tests of the RDMA data plane.

The strongest invariant in the repository: for ANY mix of message sizes,
sources, destinations, and buffer kinds, every byte PUT into the network
arrives exactly once, in the right place, with no deadlock.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apenet import BufferKind
from repro.bench.microbench import make_cluster
from repro.units import us


@given(
    sizes=st.lists(st.integers(1, 40_000), min_size=1, max_size=6),
    gpu_src=st.booleans(),
    gpu_dst=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_puts_conserve_bytes(sizes, gpu_src, gpu_dst):
    """All messages delivered exactly once, payloads intact."""
    sim, cluster = make_cluster(2, 1)
    a, b = cluster.nodes
    total = sum(sizes)
    offsets = np.cumsum([0] + sizes[:-1]).tolist()

    if gpu_src:
        src = a.gpu.alloc(total)
    else:
        src = a.runtime.host_alloc(total)
    if gpu_dst:
        dst = b.gpu.alloc(total)
    else:
        dst = b.runtime.host_alloc(total)
    rng = np.random.default_rng(42)
    src.data[:] = rng.integers(0, 256, total, dtype=np.uint8)
    kind = BufferKind.GPU if gpu_src else BufferKind.HOST

    records = []

    def receiver():
        yield from b.endpoint.register(dst.addr, total)
        for _ in sizes:
            records.append((yield from b.endpoint.wait_event()))

    def sender():
        yield sim.timeout(us(10))
        if gpu_src:
            yield from a.endpoint.register(src.addr, total)
        for off, n in zip(offsets, sizes):
            yield from a.endpoint.put(
                1, src.addr + off, dst.addr + off, n, src_kind=kind
            )

    rx = sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert rx.processed, "deadlock: receiver never completed"
    np.testing.assert_array_equal(dst.data, src.data)
    # One completion per message, each for its whole size, and no more.
    assert sorted(rec.nbytes for rec in records) == sorted(sizes)
    assert len(b.endpoint.events) == 0


@given(
    pattern=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(64, 16_384)),
        min_size=2,
        max_size=10,
    ),
)
@settings(max_examples=15, deadline=None)
def test_random_traffic_on_torus_never_deadlocks(pattern):
    """Arbitrary src->dst messages on the 4x2 torus all arrive."""
    sim, cluster = make_cluster(4, 2)
    # One receive buffer per node, large enough for anything.
    bufs = [n.runtime.host_alloc(20_000) for n in cluster.nodes]
    srcs = [n.runtime.host_alloc(20_000) for n in cluster.nodes]
    expected = [0] * 8
    for s, d, n in pattern:
        if s != d:
            expected[d] += 1

    def node_proc(rank):
        node = cluster.nodes[rank]
        yield from node.endpoint.register(bufs[rank].addr, 20_000)
        yield sim.timeout(us(20))
        for s, d, n in pattern:
            if s == rank and d != rank:
                yield from node.endpoint.put(
                    d, srcs[rank].addr, bufs[d].addr, n, src_kind=BufferKind.HOST
                )
        for _ in range(expected[rank]):
            yield from node.endpoint.wait_event()

    procs = [sim.process(node_proc(r)) for r in range(8)]
    sim.run()
    assert all(p.processed for p in procs), "torus deadlock or lost message"


@given(n_buffers=st.integers(1, 30))
@settings(max_examples=10, deadline=None)
def test_buflist_scan_cost_visible_in_latency(n_buffers):
    """More registrations => monotonically slower RX (the linear scan)."""
    sim, cluster = make_cluster(2, 1)
    a, b = cluster.nodes
    pads = [b.runtime.host_alloc(4096) for _ in range(n_buffers)]
    hb = b.runtime.host_alloc(64)
    ha = a.runtime.host_alloc(64)
    out = {}

    def nb():
        for p in pads:
            yield from b.endpoint.register(p.addr, 4096)
        yield from b.endpoint.register(hb.addr, 64)
        yield from b.endpoint.wait_event()
        out["arrived"] = sim.now

    def na():
        yield from a.endpoint.register(ha.addr, 64)
        yield sim.timeout(us(500))
        out["t0"] = sim.now
        yield from a.endpoint.put(1, ha.addr, hb.addr, 32, src_kind=BufferKind.HOST)

    sim.process(nb())
    sim.process(na())
    sim.run()
    one_way = out["arrived"] - out["t0"]
    cfg = cluster.config
    # The scan visits n_buffers + 1 entries: the extra cost is linear.
    extra = n_buffers * cfg.rx_buflist_per_entry
    assert one_way > us(5) + extra - 100
