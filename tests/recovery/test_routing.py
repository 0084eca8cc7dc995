"""Unit tests for fault-avoiding torus routing (repro.net.topology.RouteTable).

The detour table is the routing half of the recovery layer: deterministic
neighbour order (dims ascending, +1 before -1), shortest surviving path,
and an explicit ``None`` verdict when the dead-link set partitions the
torus.
"""

import pytest

from repro.net.topology import RouteTable, TorusShape


def detour(shape, src, dst, dead):
    """The table's route src -> dst as a ``[(dim, direction), ...]`` hop list."""
    path = RouteTable(shape, dead).path(shape.rank(src), shape.rank(dst))
    return None if path is None else [(dim, direction) for _, dim, direction in path]


def walk(shape, src, hops):
    """Apply a hop list; returns the final (wrapped) coordinate."""
    cur = src
    for dim, direction in hops:
        cur = shape.neighbor(cur, dim, direction)
    return cur


def test_neighbors_order_and_extent1_dims_skipped():
    shape = TorusShape(4, 2, 1)
    out = list(shape.neighbors((0, 0, 0)))
    # Dims ascending, +1 before -1; the extent-1 Z dim contributes nothing.
    assert [(d, s) for d, s, _ in out] == [(0, 1), (0, -1), (1, 1), (1, -1)]
    assert out[0][2] == (1, 0, 0)
    assert out[1][2] == (3, 0, 0)
    # ny=2: +1 and -1 wrap to the same neighbour.
    assert out[2][2] == out[3][2] == (0, 1, 0)


def test_route_avoiding_empty_dead_set_is_shortest():
    shape = TorusShape(4, 2, 1)
    hops = detour(shape, (0, 0, 0), (3, 1, 0), frozenset())
    assert len(hops) == 2  # one wrapped X hop + one Y hop
    assert walk(shape, (0, 0, 0), hops) == (3, 1, 0)


def test_two_ring_detour_uses_reverse_channel():
    # On the 2-node X ring, killing the +X channel leaves the distinct
    # -X channel of the same cable pair: detour length stays 1.
    shape = TorusShape(2, 1, 1)
    dead = {((0, 0, 0), 0, 1)}
    assert detour(shape, (0, 0, 0), (1, 0, 0), dead) == [(0, -1)]


def test_four_ring_detour_goes_the_long_way():
    shape = TorusShape(4, 1, 1)
    dead = {((0, 0, 0), 0, 1)}
    hops = detour(shape, (0, 0, 0), (1, 0, 0), dead)
    assert hops == [(0, -1)] * 3
    assert walk(shape, (0, 0, 0), hops) == (1, 0, 0)


def test_detour_avoids_every_dead_link():
    shape = TorusShape(4, 4, 1)
    dead = {((0, 0, 0), 0, 1), ((0, 1, 0), 0, 1), ((0, 3, 0), 0, 1)}
    hops = detour(shape, (0, 0, 0), (2, 0, 0), dead)
    assert hops is not None
    cur = (0, 0, 0)
    for dim, direction in hops:
        assert (cur, dim, direction) not in dead
        cur = shape.neighbor(cur, dim, direction)
    assert cur == (2, 0, 0)


def test_partition_returns_none():
    shape = TorusShape(2, 1, 1)
    dead = {((0, 0, 0), 0, 1), ((0, 0, 0), 0, -1)}
    assert detour(shape, (0, 0, 0), (1, 0, 0), dead) is None


def test_src_equals_dst_is_empty_route():
    shape = TorusShape(2, 2, 2)
    assert detour(shape, (1, 1, 1), (1, 1, 1), frozenset()) == []
    assert detour(shape, (1, 1, 1), (1, 1, 1), {((1, 1, 1), 0, 1)}) == []


@pytest.mark.parametrize("dead", [(), [(0, 0, 1)]], ids=["healthy", "damaged"])
def test_path_rejects_ranks_off_the_torus(dead):
    """A rank outside the torus raises instead of wrapping onto another node."""
    table = RouteTable(TorusShape(4, 1, 1), dead)
    for src, dst in [(-1, 0), (0, -1), (4, 0), (0, 4)]:
        with pytest.raises(ValueError, match="out of range"):
            table.path(src, dst)
