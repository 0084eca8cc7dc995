"""Sharded large-torus distributed BFS on the batched flow model.

Scales the paper's Fig. 12 BFS (``repro.apps.bfs``) from 12 nodes to
16^3 = 4096-node tori by replacing the per-packet alltoall simulation
with the :mod:`repro.scale.flow` latency/occupancy model plus NumPy
link-load decomposition:

* **Vertices** are partitioned contiguously across ranks (one rank per
  torus node, the same ``chunk = ceil(V/R)`` rule as
  ``repro.apps.bfs.distributed``).
* **Expansion is sharded**: the sorted global frontier is split into
  contiguous rank bands and expanded per shard — on the bench runner's
  fork pool when available — then merged by concatenating shard results
  in shard order.  A contiguous split of a sorted array plus an
  order-preserving ``pool.map`` makes the merged candidate stream
  byte-identical for *any* shard count, which is what keeps ``--jobs 1``
  and ``--jobs 4`` sweeps bit-identical.
* **Communication** per level uses a *sparse count protocol*: each rank
  sends one 8-byte count message plus one packed candidate message to
  each peer it actually has candidates for.  (The per-packet
  ``_ApenetComm`` broadcasts counts to *all* peers — O(R^2) control
  messages per level, ~3M at 12^3 — a documented deviation, see
  EXPERIMENTS.md.)  Per-link wire loads come from the dimension-ordered
  routes via per-ring incidence tensors (one ``einsum`` per dimension,
  never an R x R dense matrix), with dead-link detours patched in
  pair-by-pair from a :class:`~repro.net.topology.RouteTable`, the route
  oracle the recovery router forwards by, so they match its hops exactly.
* **Level time** = max per-rank expand kernel + comm (max pair latency +
  max link serialisation + max RX fragment service) + max per-rank
  filter kernel + a tree-allreduce frontier vote; every term is a
  deterministic function of the aggregates, so TEPS numbers are
  machine-independent and golden-testable.

The traversal itself (levels, parents, reached counts) is validated
against :func:`repro.apps.bfs.serial.serial_bfs` in ``tests/scale/``.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from ..apenet.buflist import BufferKind
from ..apenet.config import DEFAULT_CONFIG, ApenetConfig
from ..apps.bfs.csr import CSRGraph
from ..apps.bfs.perf import BfsKernelModel
from ..apps.bfs.rmat import rmat_edges
from ..apps.bfs.serial import UNVISITED, traversed_edges
from ..gpu import FERMI_2050
from ..net.packet import MAX_PACKET_PAYLOAD, PACKET_HEADER_BYTES
from ..net.topology import RouteTable, TorusShape
from .flow import FlowCalibration, calibrate

__all__ = ["ScaleBfsResult", "run_scale_bfs"]

#: Bytes per transmitted candidate pair — matches ``repro.apps.bfs``.
PAIR_BYTES = 8

#: Bytes of the per-peer candidate-count message (sparse protocol).
COUNT_BYTES = 8

#: Allreduce payload (one 8-byte frontier vote) per butterfly stage.
VOTE_BYTES = 8

# Worker-side graph for the shard pool: assigned before forking so
# workers inherit the CSR arrays by address instead of pickling them on
# every call.
_SHARD_GRAPH: Optional[CSRGraph] = None


def _expand_shard(frontier_slice: np.ndarray):
    """Expand one shard's frontier slice against the inherited graph."""
    return _SHARD_GRAPH.neighbors_of_set(frontier_slice)


def _incidence(extent: int) -> np.ndarray:
    """Directed ring-edge incidence of shortest wrapped paths.

    ``inc[a, b, e, s]`` is True when the shortest wrapped path from ring
    position *a* to *b* (ties toward +1, mirroring
    ``TorusShape._step``) traverses the directed edge whose source
    position is *e* in direction ``(+1, -1)[s]``.
    """
    inc = np.zeros((extent, extent, extent, 2), dtype=bool)
    for a in range(extent):
        for b in range(extent):
            delta = (b - a) % extent
            step = delta if delta * 2 <= extent else delta - extent
            direction = 1 if step > 0 else -1
            pos = a
            for _ in range(abs(step)):
                # A hop's directed-edge key is its *source* position,
                # matching RouteTable.path's ``(src_rank, dim, direction)``.
                inc[a, b, pos, 0 if direction == 1 else 1] = True
                pos = (pos + direction) % extent
    return inc


@dataclass(frozen=True)
class ScaleBfsResult:
    """Outcome of one sharded flow-mode BFS run (all fields deterministic)."""

    dims: Tuple[int, int, int]
    n_ranks: int
    scale: int
    n_vertices: int
    n_edges: int
    root: int
    shards: int
    n_levels: int
    reached: int
    traversed: int
    levels_checksum: int
    total_time_ns: float
    teps: float
    comm_bytes: int
    max_link_load: int
    frontier_peak: int
    dead_links: int


class _CommModel:
    """Per-level communication timing and link-load model for one torus."""

    def __init__(
        self,
        shape: TorusShape,
        config: ApenetConfig,
        cal: FlowCalibration,
        routes: RouteTable,
    ):
        self.shape = shape
        self.config = config
        self.cal = cal
        self.routes = routes
        self.inc = (
            _incidence(shape.nx),
            _incidence(shape.ny),
            _incidence(shape.nz),
        )
        self._ext = (shape.nx, shape.ny, shape.nz)

    def _coords(self, ranks: np.ndarray):
        nx, ny = self.shape.nx, self.shape.ny
        return ranks % nx, (ranks // nx) % ny, ranks // (nx * ny)

    def _distance(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Fault-free dimension-ordered hop counts, vectorised."""
        total = np.zeros(src.shape, dtype=np.int64)
        for ext, a, b in zip(self._ext, self._coords(src), self._coords(dst)):
            d = (b - a) % ext
            total += np.minimum(d, ext - d)
        return total

    def _affected(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Mask of pairs whose dimension-ordered route crosses a dead edge."""
        x1, y1, z1 = self._coords(src)
        x2, y2, z2 = self._coords(dst)
        mask = np.zeros(src.shape, dtype=bool)
        for (cx, cy, cz), dim, direction in sorted(self.routes.dead):
            s = 0 if direction == 1 else 1
            if dim == 0:
                mask |= (y1 == cy) & (z1 == cz) & self.inc[0][x1, x2, cx, s]
            elif dim == 1:
                mask |= (x2 == cx) & (z1 == cz) & self.inc[1][y1, y2, cy, s]
            else:
                mask |= (x2 == cx) & (y2 == cy) & self.inc[2][z1, z2, cz, s]
        return mask

    def level_time(
        self, src: np.ndarray, dst: np.ndarray, counts: np.ndarray
    ) -> Tuple[float, int, int]:
        """Comm time + wire/load aggregates for one level's pair traffic.

        ``src``/``dst``/``counts`` are the unique remote (src_rank,
        dst_rank) pairs and candidate counts.  Returns ``(time_ns,
        wire_bytes_total, max_link_load_bytes)``.
        """
        if src.size == 0:
            return 0.0, 0, 0
        nx, ny, nz = self._ext

        data_bytes = counts * PAIR_BYTES
        data_frags = np.maximum(1, -(-data_bytes // MAX_PACKET_PAYLOAD))
        # Per-pair wire bytes: packed data message + 8-byte count message.
        wire = (
            data_bytes
            + data_frags * PACKET_HEADER_BYTES
            + COUNT_BYTES
            + PACKET_HEADER_BYTES
        )

        affected = (
            self._affected(src, dst)
            if self.routes.dead
            else np.zeros(src.shape, dtype=bool)
        )
        clean = ~affected
        hops = self._distance(src, dst).astype(np.float64)

        # Per-link loads via per-ring decomposition: dimension-ordered
        # routes cross X at (y1, z1), Y at (x2, z1), Z at (x2, y2).
        x1, y1, z1 = self._coords(src)
        x2, y2, z2 = self._coords(dst)
        w = wire[clean].astype(np.float64)
        specs = (
            (0, y1, z1, ny, nz, x1, x2),
            (1, x2, z1, nx, nz, y1, y2),
            (2, x2, y2, nx, ny, z1, z2),
        )
        per_dim_loads = []
        for dim, ring_a, ring_b, ring_ext, ring_ext2, a, b in specs:
            ext = self._ext[dim]
            ring = (ring_a[clean] + ring_ext * ring_b[clean]).astype(np.int64)
            wmat = np.zeros((ring_ext * ring_ext2, ext, ext))
            np.add.at(wmat, (ring, a[clean], b[clean]), w)
            per_dim_loads.append(
                np.einsum("rab,abes->res", wmat, self.inc[dim].astype(np.float64))
            )

        # Affected pairs were excluded from the decomposition; walk their
        # recovery route hop by hop and merge the bytes back into the same
        # per-link load arrays, so shared links sum exactly.
        for i in np.nonzero(affected)[0]:
            path = self.routes.path(int(src[i]), int(dst[i]))
            if path is None:
                raise ValueError(
                    f"torus partitioned: rank {src[i]} cannot reach rank {dst[i]} "
                    f"under {len(self.routes.dead)} dead link(s)"
                )
            hops[i] = float(len(path))
            wi = float(wire[i])
            for rank, dim, direction in path:
                hx, hy, hz = self.shape.coord(rank)
                if dim == 0:
                    ring, pos = hy + ny * hz, hx
                elif dim == 1:
                    ring, pos = hx + nx * hz, hy
                else:
                    ring, pos = hx + nx * hy, hz
                per_dim_loads[dim][ring, pos, 0 if direction == 1 else 1] += wi
        max_link_load = max(
            float(arr.max()) if arr.size else 0.0 for arr in per_dim_loads
        )

        latency = float(
            self.cal.completion_latency_array(data_bytes + COUNT_BYTES, hops).max()
        )
        serialisation = max_link_load / self.config.link_bandwidth
        rx_frags = np.zeros(self.shape.size, dtype=np.int64)
        np.add.at(rx_frags, dst, data_frags + 1)
        rx_busy = float(rx_frags.max()) * self.cal.per_fragment
        return latency + serialisation + rx_busy, int(wire.sum()), int(max_link_load)


def run_scale_bfs(
    dims: Tuple[int, int, int],
    scale: int,
    edgefactor: int = 16,
    seed: int = 1,
    root: Optional[int] = None,
    config: Optional[ApenetConfig] = None,
    dead_links: Iterable = (),
    shards: int = 1,
    gpu_spec=FERMI_2050,
    src_kind: BufferKind = BufferKind.GPU,
    dst_kind: BufferKind = BufferKind.GPU,
) -> ScaleBfsResult:
    """Run one sharded flow-mode BFS over a ``dims`` torus.

    ``scale``/``edgefactor``/``seed`` parameterise the R-MAT graph
    (``2**scale`` vertices).  ``shards`` splits frontier expansion
    across fork-pool workers; any shard count produces bit-identical
    results.  ``dead_links`` routes traffic around failures
    recovery-style; a partitioned torus raises ``ValueError``.
    ``root=None`` picks the first vertex with nonzero degree.
    """
    config = config or DEFAULT_CONFIG
    shape = TorusShape(*dims)
    R = shape.size
    routes = RouteTable(shape, dead_links)
    cal = calibrate(config, src_kind, dst_kind)
    kernel = BfsKernelModel(gpu_spec)

    n_vertices = 1 << scale
    graph = CSRGraph.from_edges(n_vertices, rmat_edges(scale, edgefactor, seed=seed))
    degrees = np.diff(graph.row_ptr).astype(np.int64)
    if root is None:
        root = int(np.nonzero(degrees > 0)[0][0])

    chunk = -(-n_vertices // R)
    shards = max(1, min(int(shards), R))
    # Shard boundaries: contiguous rank bands -> contiguous vertex ranges.
    band_edges = [min(s * R // shards * chunk, n_vertices) for s in range(shards)]
    band_edges.append(n_vertices)

    levels = np.full(n_vertices, UNVISITED, dtype=np.int64)
    parents = np.full(n_vertices, UNVISITED, dtype=np.int64)
    levels[root] = 0
    parents[root] = root
    frontier = np.array([root], dtype=np.int64)

    global _SHARD_GRAPH
    _SHARD_GRAPH = graph
    pool = None
    # Inside a bench-runner worker (daemonic) nested pools are illegal;
    # the serial fallback's concat merge is bit-identical to the pooled
    # one, which is exactly why `--jobs N` sweeps stay deterministic.
    if shards > 1 and not multiprocessing.current_process().daemon:
        from ..bench.runner import _pool_context

        pool = _pool_context().Pool(processes=shards)

    comm = _CommModel(shape, config, cal, routes)
    total_ns = 0.0
    comm_bytes = 0
    max_link_load = 0
    frontier_peak = 0
    n_levels = 0
    allreduce_stages = 2 * math.ceil(math.log2(R)) if R > 1 else 0
    diameter = max(1, shape.nx // 2 + shape.ny // 2 + shape.nz // 2)
    allreduce_ns = allreduce_stages * cal.completion_latency(1, VOTE_BYTES, diameter)

    try:
        while frontier.size:
            frontier_peak = max(frontier_peak, int(frontier.size))

            # -- expand (sharded, order-preserving merge) -------------------
            cuts = np.searchsorted(frontier, band_edges)
            slices = [
                frontier[cuts[s] : cuts[s + 1]]
                for s in range(shards)
                if cuts[s + 1] > cuts[s]
            ]
            if pool is not None and len(slices) > 1:
                parts = pool.map(_expand_shard, slices)
            else:
                parts = [_expand_shard(fs) for fs in slices]
            if parts:
                neighbors = np.concatenate([p[0] for p in parts])
                cand_parents = np.concatenate([p[1] for p in parts])
            else:
                neighbors = np.empty(0, dtype=np.int64)
                cand_parents = np.empty(0, dtype=np.int64)

            # -- per-rank kernel terms --------------------------------------
            edges_per_rank = np.bincount(
                frontier // chunk, weights=degrees[frontier].astype(np.float64),
                minlength=R,
            )
            expand_ns = kernel.expand_ns(float(edges_per_rank.max()))

            n_owner = neighbors // chunk
            if neighbors.size:
                cand_per_rank = np.bincount(n_owner, minlength=R)
                filter_ns = kernel.filter_ns(int(cand_per_rank.max()))
            else:
                filter_ns = kernel.filter_ns(0)

            # -- comm: unique remote (src, dst) rank pairs ------------------
            p_owner = cand_parents // chunk
            remote = p_owner != n_owner
            pair_keys = p_owner[remote] * R + n_owner[remote]
            uniq, counts = np.unique(pair_keys, return_counts=True)
            comm_ns, wire, peak = comm.level_time(
                uniq // R, uniq % R, counts.astype(np.int64)
            )
            comm_bytes += wire
            max_link_load = max(max_link_load, peak)

            n_levels += 1
            total_ns += expand_ns + comm_ns + filter_ns + allreduce_ns

            # -- absorb (first-occurrence parent, like _BfsRank.absorb) -----
            if neighbors.size:
                fresh = levels[neighbors] == UNVISITED
                cand_v = neighbors[fresh]
                uniq_v, first = np.unique(cand_v, return_index=True)
                levels[uniq_v] = n_levels
                parents[uniq_v] = cand_parents[fresh][first]
                frontier = uniq_v
            else:
                frontier = np.empty(0, dtype=np.int64)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
        _SHARD_GRAPH = None

    reached = int((levels != UNVISITED).sum())
    traversed = int(traversed_edges(graph, levels))
    teps = traversed / (total_ns / 1e9) if total_ns else 0.0
    return ScaleBfsResult(
        dims=(shape.nx, shape.ny, shape.nz),
        n_ranks=R,
        scale=scale,
        n_vertices=n_vertices,
        n_edges=graph.n_directed_edges,
        root=root,
        shards=shards,
        n_levels=n_levels,
        reached=reached,
        traversed=traversed,
        levels_checksum=int(levels[levels != UNVISITED].sum()),
        total_time_ns=total_ns,
        teps=teps,
        comm_bytes=comm_bytes,
        max_link_load=max_link_load,
        frontier_peak=frontier_peak,
        dead_links=len(routes.dead),
    )
