"""3D torus topology math: coordinates, ranks, routes and dead-link detours.

APEnet+ "implements a dimension-ordered static routing algorithm" (§III.B)
over a 3D torus with six links per node (X±, Y±, Z±).  The paper's
Cluster I is a 4×2 torus (8 nodes; the Z dimension is size 1).
:class:`RouteTable` is the one route oracle: static dimension order on a
healthy torus, deterministic shortest detours once links die (the
fault-awareness layer of arXiv:1311.1741).  The packet router, the
recovery manager, the flow model and the scale BFS all ask it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = ["TorusShape", "RouteTable", "Coord", "DIMS", "OPPOSITE"]

Coord = tuple[int, int, int]

# Port naming: (dimension index, direction). "X+" = (0, +1), etc.
DIMS = ("X", "Y", "Z")


def OPPOSITE(direction: int) -> int:
    """The reverse link direction."""
    return -direction


@dataclass(frozen=True)
class TorusShape:
    """Dimensions of a 3D torus (any dimension may be 1)."""

    nx: int
    ny: int
    nz: int = 1

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("torus dimensions must be >= 1")

    @property
    def size(self) -> int:
        """Number of nodes."""
        return self.nx * self.ny * self.nz

    @property
    def dims(self) -> tuple[int, int, int]:
        """(nx, ny, nz)."""
        return (self.nx, self.ny, self.nz)

    def coords(self) -> Iterator[Coord]:
        """All coordinates in rank order."""
        for z in range(self.nz):
            for y in range(self.ny):
                for x in range(self.nx):
                    yield (x, y, z)

    def rank(self, coord: Coord) -> int:
        """Linear rank of *coord* (x fastest)."""
        x, y, z = self.wrap(coord)
        return x + self.nx * (y + self.ny * z)

    def coord(self, rank: int) -> Coord:
        """Coordinate of linear *rank*."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for {self.size} nodes")
        x = rank % self.nx
        y = (rank // self.nx) % self.ny
        z = rank // (self.nx * self.ny)
        return (x, y, z)

    def wrap(self, coord: Coord) -> Coord:
        """Apply periodic boundary conditions."""
        return (coord[0] % self.nx, coord[1] % self.ny, coord[2] % self.nz)

    def neighbor(self, coord: Coord, dim: int, direction: int) -> Coord:
        """The adjacent coordinate along *dim* in *direction* (±1)."""
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        delta = [0, 0, 0]
        delta[dim] = direction
        return self.wrap(tuple(c + d for c, d in zip(coord, delta)))

    def _step(self, delta: int, extent: int) -> int:
        """Shortest-path direction for a signed offset on a ring."""
        if delta == 0:
            return 0
        # Wrap to (-extent/2, extent/2]; ties go positive (deterministic).
        delta %= extent
        if delta * 2 > extent:
            delta -= extent
        return 1 if delta > 0 else -1

    def route(self, src: Coord, dst: Coord) -> list[tuple[int, int]]:
        """Dimension-ordered hop list [(dim, direction), ...] src -> dst.

        Corrects X fully, then Y, then Z, taking the shorter way around
        each ring (static, deterministic).
        """
        src = self.wrap(src)
        dst = self.wrap(dst)
        hops: list[tuple[int, int]] = []
        cur = list(src)
        for dim, extent in enumerate(self.dims):
            while cur[dim] != dst[dim]:
                step = self._step(dst[dim] - cur[dim], extent)
                hops.append((dim, step))
                cur[dim] = (cur[dim] + step) % extent
        return hops

    def distance(self, src: Coord, dst: Coord) -> int:
        """Hop count of the dimension-ordered route."""
        return len(self.route(src, dst))

    def neighbors(self, coord: Coord) -> Iterator[tuple[int, int, Coord]]:
        """Outgoing links of *coord* as (dim, direction, neighbor).

        Deterministic order (dims ascending, +1 before -1).  This is the
        slot order of :class:`RouteTable`, whose detours break ties by it,
        so routes are stable run to run.  Extent-1 dimensions have no links.
        """
        for dim, extent in enumerate(self.dims):
            if extent == 1:
                continue
            for direction in (1, -1):
                yield dim, direction, self.neighbor(coord, dim, direction)

    def links(self) -> Iterator[tuple[Coord, int, int, Coord]]:
        """Every directed link as (src, dim, direction, dst).

        Skips dimensions of extent 1 (no self-links) and emits each
        physical direction once per node; for extent-2 rings the +1 and -1
        links connect the same pair but are distinct channels (as on the
        real hardware, where all six cables exist).
        """
        for coord in self.coords():
            for dim, extent in enumerate(self.dims):
                if extent == 1:
                    continue
                for direction in (1, -1):
                    yield coord, dim, direction, self.neighbor(coord, dim, direction)


def _dead_link(shape: TorusShape, spec) -> tuple[Coord, int, int]:
    """Validate one dead-link spec; returns ``(src_coord, dim, direction)``."""
    src, dim, direction = spec
    torus = f"{shape.nx}x{shape.ny}x{shape.nz} torus"
    if isinstance(src, numbers.Integral):
        coord = shape.coord(int(src)) if 0 <= src < shape.size else ()
    else:
        coord = tuple(int(c) for c in src)
    if len(coord) != 3 or not all(0 <= c < n for c, n in zip(coord, shape.dims)):
        raise ValueError(f"dead link {spec!r}: source {src!r} lies outside the {torus}")
    if dim not in (0, 1, 2) or shape.dims[int(dim)] == 1:
        raise ValueError(f"dead link {spec!r}: the {torus} has no links along dimension {dim!r}")
    if direction not in (1, -1):
        raise ValueError(f"dead link {spec!r}: direction must be +1 or -1")
    return coord, int(dim), int(direction)


class RouteTable:
    """The torus route oracle: static dimension order or dead-link detours.

    *dead* lists dead directed links as ``(src, dim, direction)``, the
    sender-side identity of a link (on an extent-2 ring the +1 and -1
    channels are distinct and die independently).  *src* is a coordinate
    or a rank of any integer type; a source outside the torus, a link on
    an extent-1 dimension or a direction other than ±1 raises
    ``ValueError``.  The table is immutable: a new dead set means a new
    table.

    With no dead links every answer is :meth:`TorusShape.route`.  With
    dead links the route is the lexicographically smallest shortest
    surviving path, hops compared in :meth:`TorusShape.neighbors` slot
    order: from node *v* toward goal *g* the next hop is the first alive
    slot whose neighbour is one hop closer to *g* in the damaged torus.
    Each hop decreases that distance by one, so per-hop forwarding is
    loop-free and consistent whichever node asks, and a pair whose
    dimension-ordered route crosses no dead link keeps exactly that
    route.  The all-pairs arrays behind the rule (O(R²) bytes) are built
    with NumPy on the first dead-link query.
    """

    def __init__(self, shape: TorusShape, dead: Iterable = ()):
        self.shape = shape
        self.dead = frozenset(_dead_link(shape, spec) for spec in dead)
        self._slots = [(dim, direction) for dim, direction, _ in shape.neighbors((0, 0, 0))]
        self._next_slot: Optional[np.ndarray] = None
        self._nbr: list[list[int]] = []

    def _arrays(self) -> tuple[np.ndarray, list[list[int]]]:
        """``(next_slot, nbr)`` by rank: first hop slot (-1: none), neighbours."""
        if self._next_slot is not None:
            return self._next_slot, self._nbr
        shape = self.shape
        R = shape.size
        ranks = np.arange(R, dtype=np.int64)
        strides = (1, shape.nx, shape.nx * shape.ny)
        nbr = np.empty((R, len(self._slots)), dtype=np.int64)
        alive = np.ones((R, len(self._slots)), dtype=bool)
        for s, (dim, direction) in enumerate(self._slots):
            at = (ranks // strides[dim]) % shape.dims[dim]
            nbr[:, s] = ranks + ((at + direction) % shape.dims[dim] - at) * strides[dim]
        for coord, dim, direction in self.dead:
            alive[shape.rank(coord), self._slots.index((dim, direction))] = False

        # dist[v, g]: damaged-torus hop distance v -> g (-1: cut off), by a
        # level-synchronous reverse BFS over all goals at once.
        dist = np.full((R, R), -1, dtype=np.int16)
        dist[ranks, ranks] = 0
        frontier = np.eye(R, dtype=bool)
        level = 0
        while True:
            reached = np.zeros((R, R), dtype=bool)
            for s in range(len(self._slots)):
                reached |= frontier[nbr[:, s], :] & alive[:, s][:, None]
            reached &= dist < 0
            if not reached.any():
                break
            level += 1
            dist[reached] = level
            frontier = reached

        next_slot = np.full((R, R), -1, dtype=np.int8)
        for s in range(len(self._slots)):
            closer = (
                (next_slot < 0)
                & (dist > 0)
                & alive[:, s][:, None]
                & (dist[nbr[:, s], :] == dist - 1)
            )
            next_slot[closer] = s
        self._next_slot, self._nbr = next_slot, nbr.tolist()
        return self._next_slot, self._nbr

    def next_hop(self, cur: Coord, dst: Coord) -> Optional[tuple[int, int]]:
        """First hop ``(dim, direction)`` from *cur* toward *dst*.

        None when *cur* is *dst* or when every surviving path is severed
        (the explicit "unreachable" verdict).
        """
        if not self.dead:
            route = self.shape.route(cur, dst)
            return route[0] if route else None
        next_slot, _ = self._arrays()
        s = next_slot[self.shape.rank(cur), self.shape.rank(dst)]
        return self._slots[s] if s >= 0 else None

    def path(self, src: int, dst: int) -> Optional[tuple[tuple[int, int, int], ...]]:
        """Hop list ``((rank, dim, direction), ...)`` from rank *src* to *dst*.

        The hops :meth:`next_hop` gives at every node on the way; None
        when every surviving path is severed.
        """
        shape = self.shape
        cur, goal = shape.coord(src), shape.coord(dst)
        hops = []
        if not self.dead:
            for dim, direction in shape.route(cur, goal):
                hops.append((shape.rank(cur), dim, direction))
                cur = shape.neighbor(cur, dim, direction)
            return tuple(hops)
        next_slot, nbr = self._arrays()
        rank = int(src)
        while rank != dst:
            s = next_slot[rank, dst]
            if s < 0:
                return None
            hops.append((rank, *self._slots[s]))
            rank = nbr[rank][s]
        return tuple(hops)
