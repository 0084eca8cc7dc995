"""Unit tests for torus topology math and the healthy torus's routes.

Routes come from :class:`repro.net.topology.RouteTable`, the torus's one
routing rule, and are checked against the independent
:func:`tests.net.route_oracle.dimension_order`.
"""

import pytest

from repro.net import TorusShape
from repro.net.topology import RouteTable
from tests.net.route_oracle import dimension_order


def _hops(shape, src, dst):
    """The table's route between coordinates as ``[(dim, direction), ...]``."""
    path = RouteTable(shape).path(shape.rank(src), shape.rank(dst))
    return [(dim, direction) for _, dim, direction in path]


def test_rank_coord_round_trip():
    shape = TorusShape(4, 2, 1)
    for rank in range(shape.size):
        assert shape.rank(shape.coord(rank)) == rank


def test_size_and_dims():
    assert TorusShape(4, 2).size == 8
    assert TorusShape(2, 2, 2).size == 8
    assert TorusShape(1, 1, 1).size == 1


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        TorusShape(0, 2)


def test_wrap():
    shape = TorusShape(4, 2, 1)
    assert shape.wrap((4, 2, 1)) == (0, 0, 0)
    assert shape.wrap((-1, -1, 0)) == (3, 1, 0)


def test_neighbors():
    shape = TorusShape(4, 2, 1)
    assert shape.neighbor((0, 0, 0), 0, 1) == (1, 0, 0)
    assert shape.neighbor((3, 0, 0), 0, 1) == (0, 0, 0)  # wraparound
    assert shape.neighbor((0, 0, 0), 0, -1) == (3, 0, 0)
    assert shape.neighbor((0, 1, 0), 1, 1) == (0, 0, 0)


def test_route_is_dimension_ordered():
    shape = TorusShape(4, 4, 4)
    hops = _hops(shape, (0, 0, 0), (2, 1, 3))
    dims = [d for d, _ in hops]
    assert dims == sorted(dims)  # X hops before Y before Z
    # Apply the hops; we must land on the destination.
    cur = (0, 0, 0)
    for dim, step in hops:
        cur = shape.neighbor(cur, dim, step)
    assert cur == (2, 1, 3)


def test_route_takes_shortest_way_around():
    shape = TorusShape(8, 1, 1)
    # 0 -> 6 is 2 hops backwards, not 6 forwards.
    hops = _hops(shape, (0, 0, 0), (6, 0, 0))
    assert hops == [(0, -1), (0, -1)]
    # 0 -> 4 (exactly half): tie goes positive.
    hops = _hops(shape, (0, 0, 0), (4, 0, 0))
    assert hops == [(0, 1)] * 4


def test_route_to_self_is_empty():
    shape = TorusShape(4, 2)
    assert _hops(shape, (1, 1, 0), (1, 1, 0)) == []


def test_distance():
    shape = TorusShape(4, 2, 1)
    assert len(_hops(shape, (0, 0, 0), (1, 0, 0))) == 1
    assert len(_hops(shape, (0, 0, 0), (3, 0, 0))) == 1  # wrap
    assert len(_hops(shape, (0, 0, 0), (2, 1, 0))) == 3


def test_links_enumeration_4x2():
    shape = TorusShape(4, 2, 1)
    links = list(shape.links())
    # Per node: 2 X links + 2 Y links (Z has extent 1) = 4; 8 nodes = 32.
    assert len(links) == 32
    for src, dim, direction, dst in links:
        assert shape.neighbor(src, dim, direction) == dst


def test_links_skip_unit_dimensions():
    shape = TorusShape(2, 1, 1)
    links = list(shape.links())
    assert all(dim == 0 for _, dim, _, _ in links)
    assert len(links) == 4  # 2 nodes x 2 X-directions


# Flat (extent-1) and extent-2 rings, odd and even extents up to 6.
ALL_PAIRS_SHAPES = [
    (1, 1, 1), (2, 1, 1), (1, 1, 2), (4, 1, 1), (4, 2, 1),
    (2, 2, 2), (3, 3, 2), (3, 3, 3), (5, 2, 3), (6, 1, 4),
]


@pytest.mark.parametrize("dims", ALL_PAIRS_SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_route_all_pairs_land_correctly(dims):
    """Every pair's route is the dimension-ordered one and lands on its destination."""
    shape = TorusShape(*dims)
    table = RouteTable(shape)
    for s in range(shape.size):
        for d in range(shape.size):
            path = table.path(s, d)
            assert path == dimension_order(shape, s, d), (dims, s, d)
            cur = shape.coord(s)
            for rank, dim, step in path:
                assert rank == shape.rank(cur)
                cur = shape.neighbor(cur, dim, step)
            assert cur == shape.coord(d)
