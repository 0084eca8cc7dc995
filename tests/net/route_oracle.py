"""Independent per-pair route oracles that the production route table is tested against.

:class:`repro.net.topology.RouteTable` answers every route query from
all-pairs NumPy arrays.  The functions here compute the same routes one
pair at a time in plain Python and share no code with it:

* :func:`dimension_order` is the paper's static rule for a healthy
  torus, written out ring by ring.
* :func:`route_avoiding` runs an ordered breadth-first search over the
  damaged torus.  Nodes expand in FIFO order and neighbours in
  :meth:`TorusShape.neighbors` order, so among equal-length routes it
  returns the lexicographically smallest one.
* :func:`hop_route` re-runs that search from every node on the way and
  takes the first hop each time, which is what per-hop forwarding does.
"""

from __future__ import annotations

from typing import Optional

from repro.net.topology import Coord, TorusShape


def dimension_order(shape: TorusShape, src: int, dst: int) -> tuple[tuple[int, int, int], ...]:
    """Static dimension-ordered route ``((rank, dim, direction), ...)`` between ranks.

    Corrects X fully, then Y, then Z, each the shorter way round its
    ring; a destination exactly half a ring away is reached going +1.
    """
    cur, goal = shape.coord(src), shape.coord(dst)
    hops: list[tuple[int, int, int]] = []
    for dim, extent in enumerate(shape.dims):
        ahead = (goal[dim] - cur[dim]) % extent
        direction = 1 if 2 * ahead <= extent else -1
        while cur[dim] != goal[dim]:
            hops.append((shape.rank(cur), dim, direction))
            cur = shape.neighbor(cur, dim, direction)
    return tuple(hops)


def route_avoiding(
    shape: TorusShape, src: Coord, dst: Coord, dead
) -> Optional[list[tuple[int, int]]]:
    """Shortest route ``[(dim, direction), ...]`` src -> dst avoiding *dead*.

    *dead* holds ``(src_coord, dim, direction)`` triples.  Returns None
    when every surviving path is severed.
    """
    src = shape.wrap(src)
    dst = shape.wrap(dst)
    if src == dst:
        return []
    parent: dict[Coord, Optional[tuple[Coord, int, int]]] = {src: None}
    frontier = [src]
    while frontier:
        next_frontier: list[Coord] = []
        for cur in frontier:
            for dim, direction, nxt in shape.neighbors(cur):
                if (cur, dim, direction) in dead or nxt in parent:
                    continue
                parent[nxt] = (cur, dim, direction)
                if nxt == dst:
                    hops: list[tuple[int, int]] = []
                    node = dst
                    while node != src:
                        prev, d, s = parent[node]
                        hops.append((d, s))
                        node = prev
                    hops.reverse()
                    return hops
                next_frontier.append(nxt)
        frontier = next_frontier
    return None


def hop_route(
    shape: TorusShape, src: int, dst: int, dead=frozenset()
) -> Optional[tuple[tuple[int, int, int], ...]]:
    """Per-hop forwarded route ``((rank, dim, direction), ...)`` between ranks.

    Returns None when *dst* is unreachable from *src*.
    """
    cur = shape.coord(src)
    goal = shape.coord(dst)
    hops: list[tuple[int, int, int]] = []
    while cur != goal:
        path = route_avoiding(shape, cur, goal, dead)
        if not path:
            return None
        dim, direction = path[0]
        hops.append((shape.rank(cur), dim, direction))
        cur = shape.neighbor(cur, dim, direction)
    return tuple(hops)
