"""Property coverage for the torus route table on large (>= 8^3) tori.

The recovery router, the flow model and the scale BFS all take their
routes from :class:`repro.net.topology.RouteTable`; the unit suites
exercise it on paper-sized tori (<= 12 nodes).  Here hypothesis drives
8^3 = 512-node tori with 1-6 dead directed links drawn from a fault seed
and checks, against an independent deque-based BFS reference:

* **validity** — every returned hop exists, avoids the dead set, and the
  walk ends at the destination;
* **optimality** — the detour length equals the damaged-graph shortest
  distance (so it is also bounded by the fault-free distance plus the
  extra hops the faults force, never an unbounded wander);
* **untouched pairs** — a pair whose dimension-ordered route crosses no
  dead link keeps exactly that route;
* **partition verdicts** — ``None`` exactly when the reference finds no
  path (exercised deterministically by fully severing a corner node:
  outbound routes die, inbound routes survive);
* **determinism** — a table rebuilt from the same dead set returns the
  identical hop list.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import RouteTable, TorusShape

pytestmark = pytest.mark.scale

DIMS = (8, 8, 8)


def _all_links(shape):
    return [
        (coord, dim, direction)
        for coord in shape.coords()
        for dim, extent in enumerate(shape.dims)
        if extent > 1
        for direction in (1, -1)
    ]


def _reference_distance(shape, src, dst, dead):
    """Independent BFS hop distance in the damaged graph (-1 = cut off).

    Deliberately a different traversal (deque, visited-set) from the
    production code's layered list BFS.
    """
    if src == dst:
        return 0
    seen = {src}
    queue = deque([(src, 0)])
    while queue:
        cur, d = queue.popleft()
        for dim, direction, nxt in shape.neighbors(cur):
            if (cur, dim, direction) in dead or nxt in seen:
                continue
            if nxt == dst:
                return d + 1
            seen.add(nxt)
            queue.append((nxt, d + 1))
    return -1


def _route(table, src, dst):
    """The table's route src -> dst as a ``[(dim, direction), ...]`` hop list."""
    shape = table.shape
    path = table.path(shape.rank(src), shape.rank(dst))
    return None if path is None else [(dim, direction) for _, dim, direction in path]


def _crosses_dead(shape, src, hops, dead):
    """True when the hop list walked from *src* uses a dead link."""
    cur = src
    for dim, direction in hops:
        if (cur, dim, direction) in dead:
            return True
        cur = shape.neighbor(cur, dim, direction)
    return False


def _walk(shape, src, hops, dead):
    """Apply a hop list, asserting each hop is alive; returns the endpoint."""
    cur = src
    for dim, direction in hops:
        assert (cur, dim, direction) not in dead, "route crosses a dead link"
        cur = shape.neighbor(cur, dim, direction)
    return cur


@settings(max_examples=20, deadline=None)
@given(fault_seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_route_avoiding_on_8cubed_with_random_faults(fault_seed):
    shape = TorusShape(*DIMS)
    rng = random.Random(fault_seed)
    dead = frozenset(rng.sample(_all_links(shape), rng.randrange(1, 7)))
    table = RouteTable(shape, dead)
    rebuilt = RouteTable(shape, sorted(dead))
    for _ in range(6):
        src = shape.coord(rng.randrange(shape.size))
        dst = shape.coord(rng.randrange(shape.size))
        ref = _reference_distance(shape, src, dst, dead)
        route = _route(table, src, dst)
        if ref < 0:
            assert route is None, (src, dst, "reference says unreachable")
            continue
        assert route is not None, (src, dst, "reference found a path")
        # Validity + optimality.
        assert _walk(shape, src, route, dead) == dst
        assert len(route) == ref
        # Detour-length bound: the faults can only add hops, and with k
        # dead links a shortest detour never needs to outrun the
        # fault-free distance by more than the full damaged diameter.
        assert len(route) >= shape.distance(src, dst)
        # A dimension-ordered route the faults leave intact is kept as is.
        static = shape.route(src, dst)
        if not _crosses_dead(shape, src, static, dead):
            assert route == static
        # Determinism: the neighbor-order tie-break pins the route.
        assert _route(rebuilt, src, dst) == route


@settings(max_examples=10, deadline=None)
@given(fault_seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_fault_free_pairs_keep_their_shortest_distance(fault_seed):
    """Dead links elsewhere never change an untouched pair's route.

    A pair whose dimension-ordered route crosses no dead link gets exactly
    ``shape.route``: that is why ``packets_rerouted`` counts only real
    detours, and why a healthy torus needs no detour arrays at all.
    """
    shape = TorusShape(*DIMS)
    rng = random.Random(fault_seed)
    # Faults confined to the z=7 plane; traffic confined to z in [0, 3].
    plane_links = [
        link for link in _all_links(shape) if link[0][2] == 7 and link[1] != 2
    ]
    dead = frozenset(rng.sample(plane_links, 6))
    table = RouteTable(shape, dead)
    for _ in range(4):
        src = (rng.randrange(8), rng.randrange(8), rng.randrange(4))
        dst = (rng.randrange(8), rng.randrange(8), rng.randrange(4))
        route = _route(table, src, dst)
        assert route is not None
        assert len(route) == shape.distance(src, dst)
        assert route == shape.route(src, dst)
        cur = src
        for dim, direction in route:
            assert table.next_hop(cur, dst) == (dim, direction)
            cur = shape.neighbor(cur, dim, direction)


def test_severed_corner_partition_verdicts():
    """Killing all 6 outbound channels of a node: out dies, in survives."""
    shape = TorusShape(*DIMS)
    corner = (0, 0, 0)
    dead = frozenset(
        (corner, dim, direction) for dim in range(3) for direction in (1, -1)
    )
    table = RouteTable(shape, dead)
    far = (4, 4, 4)
    near = (1, 0, 0)
    for dst in (far, near):
        assert _route(table, corner, dst) is None
        assert table.next_hop(corner, dst) is None
    # Inbound uses other nodes' (alive) outbound channels.
    for src in (far, near):
        route = _route(table, src, corner)
        assert route is not None
        assert _walk(shape, src, route, dead) == corner
        assert len(route) == _reference_distance(shape, src, corner, dead)


def test_multi_dead_links_on_one_ring_force_the_long_way_round():
    """Deterministic detour-length check: cut both directions of a ring
    segment and the router must go around the orthogonal dimension."""
    shape = TorusShape(*DIMS)
    # Cut the +X channel at (0,0,0) and the -X channel at (1,0,0): the
    # direct X edge between them is gone in both directions.
    dead = frozenset({((0, 0, 0), 0, 1), ((1, 0, 0), 0, -1)})
    route = _route(RouteTable(shape, dead), (0, 0, 0), (1, 0, 0))
    assert route is not None
    assert _walk(shape, (0, 0, 0), route, dead) == (1, 0, 0)
    # Shortest detour: step off the ring, cross, step back (3 hops).
    assert len(route) == 3
