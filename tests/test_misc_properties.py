"""Cross-cutting property tests: topology, units, fragmentation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apenet import fragment_message
from repro.net import TorusShape
from repro.net.topology import RouteTable
from repro.pcie import fragment as pcie_fragment
from repro.units import fmt_size, parse_size
from tests.net.route_oracle import dimension_order


@given(
    nx=st.integers(1, 6),
    ny=st.integers(1, 6),
    nz=st.integers(1, 4),
    a=st.integers(0, 143),
    b=st.integers(0, 143),
)
@settings(max_examples=100)
def test_torus_routes_always_land(nx, ny, nz, a, b):
    """The route table's healthy-torus routes are dimension-ordered and land."""
    shape = TorusShape(nx, ny, nz)
    src, dst = a % shape.size, b % shape.size
    route = RouteTable(shape).path(src, dst)
    assert route == dimension_order(shape, src, dst)
    dims = [d for _, d, _ in route]
    assert dims == sorted(dims)  # strict dimension order
    cur = shape.coord(src)
    for _, dim, step in route:
        cur = shape.neighbor(cur, dim, step)
    assert cur == shape.coord(dst)
    # Shortest-path bound per ring.
    assert len(route) <= nx // 2 + ny // 2 + nz // 2 + 3


@given(
    nx=st.integers(1, 5), ny=st.integers(1, 5), nz=st.integers(1, 3),
    r=st.integers(0, 74),
)
@settings(max_examples=60)
def test_rank_coord_bijection(nx, ny, nz, r):
    shape = TorusShape(nx, ny, nz)
    rank = r % shape.size
    assert shape.rank(shape.coord(rank)) == rank


@given(n=st.integers(0, 1 << 40))
@settings(max_examples=80)
def test_fmt_size_parse_consistency_for_powers(n):
    """fmt_size of binary-round values parses back exactly."""
    for exp in (0, 10, 20):
        v = (n % 1024) * (1 << exp)
        if v == 0:
            continue
        if (n % 1024) < 1024:
            assert parse_size(fmt_size(v)) == v


@given(nbytes=st.integers(1, 1 << 24), chunk=st.sampled_from([1024, 4096, 8192]))
@settings(max_examples=60)
def test_fragment_message_partitions_exactly(nbytes, chunk):
    frags = fragment_message(nbytes, chunk)
    assert sum(n for _, n in frags) == nbytes
    assert frags[0][0] == 0
    for (o1, n1), (o2, _) in zip(frags, frags[1:]):
        assert o1 + n1 == o2
    assert all(n <= chunk for _, n in frags)


@given(
    addr=st.integers(0, 1 << 30),
    nbytes=st.integers(0, 1 << 16),
    boundary=st.sampled_from([64, 256, 512, 4096]),
)
@settings(max_examples=80)
def test_pcie_fragment_never_crosses_boundary(addr, nbytes, boundary):
    chunks = list(pcie_fragment(addr, nbytes, boundary))
    assert sum(n for _, n in chunks) == nbytes
    for a, n in chunks:
        assert n > 0
        assert a // boundary == (a + n - 1) // boundary
