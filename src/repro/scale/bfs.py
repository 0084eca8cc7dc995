"""Large-torus distributed BFS on the batched flow model.

Scales the paper's Fig. 12 BFS (``repro.apps.bfs``) from 12 nodes to
16^3 = 4096-node tori by replacing the per-packet alltoall simulation
with the :mod:`repro.scale.flow` latency/occupancy model plus NumPy
link loads:

* **Vertices** are partitioned contiguously across ranks (one rank per
  torus node, the same ``chunk = ceil(V/R)`` rule as
  ``repro.apps.bfs.distributed``).
* **Expansion** is one vectorised ``CSRGraph.neighbors_of_set`` call
  over the sorted global frontier per level, in-process.  The
  ``shards`` argument is only recorded in the result, and nothing here
  starts a process, so ``--jobs 1`` and ``--jobs 4`` sweeps are
  bit-identical.
* **Communication** per level uses a *sparse count protocol*: each rank
  sends one 8-byte count message plus one packed candidate message to
  each peer it actually has candidates for.  (The per-packet
  ``_ApenetComm`` broadcasts counts to *all* peers — O(R^2) control
  messages per level, ~3M at 12^3 — a documented deviation, see
  EXPERIMENTS.md.)  Hop counts and per-link wire loads of every pair
  come from one :meth:`~repro.net.topology.RouteTable.walk`, the routing
  rule every packet router forwards by, so dimension-ordered routes and
  dead-link detours alike match its hops exactly.
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
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from ..apenet.buflist import BufferKind
from ..apenet.config import DEFAULT_CONFIG
from ..apps.bfs.csr import rmat_graph
from ..apps.bfs.distributed import PAIR_BYTES
from ..apps.bfs.perf import BfsKernelModel
from ..apps.bfs.serial import UNVISITED, traversed_edges
from ..gpu import FERMI_2050
from ..net.packet import MAX_PACKET_PAYLOAD, PACKET_HEADER_BYTES
from ..net.topology import RouteTable, TorusShape
from .flow import FlowCalibration, calibrate

__all__ = ["ScaleBfsResult", "run_scale_bfs"]

#: Bytes of the per-peer candidate-count message (sparse protocol).
COUNT_BYTES = 8

#: Allreduce payload (one 8-byte frontier vote) per butterfly stage.
VOTE_BYTES = 8


@dataclass(frozen=True)
class ScaleBfsResult:
    """Outcome of one flow-mode BFS run (all fields deterministic)."""

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


def _level_comm(
    routes: RouteTable,
    link_bandwidth: float,
    cal: FlowCalibration,
    src: np.ndarray,
    dst: np.ndarray,
    counts: np.ndarray,
) -> Tuple[float, int, int]:
    """Comm time + wire/load aggregates for one level's pair traffic.

    ``src``/``dst``/``counts`` are the unique remote (src_rank,
    dst_rank) pairs and candidate counts.  Returns ``(time_ns,
    wire_bytes_total, max_link_load_bytes)``.
    """
    if src.size == 0:
        return 0.0, 0, 0
    data_bytes = counts * PAIR_BYTES
    data_frags = np.maximum(1, -(-data_bytes // MAX_PACKET_PAYLOAD))
    # Per-pair wire bytes: packed data message + 8-byte count message.
    wire = (
        data_bytes
        + data_frags * PACKET_HEADER_BYTES
        + COUNT_BYTES
        + PACKET_HEADER_BYTES
    )
    hops, loads = routes.walk(src, dst, wire)
    cut = np.flatnonzero(hops < 0)
    if cut.size:
        i = cut[0]
        raise ValueError(
            f"torus partitioned: rank {src[i]} cannot reach rank {dst[i]} "
            f"under {len(routes.dead)} dead link(s)"
        )
    max_link_load = int(loads.max())

    latency = float(cal.completion_latency_array(data_bytes + COUNT_BYTES, hops).max())
    serialisation = max_link_load / link_bandwidth
    rx_frags = np.bincount(dst, weights=data_frags + 1, minlength=routes.shape.size)
    rx_busy = float(rx_frags.max()) * cal.per_fragment
    return latency + serialisation + rx_busy, int(wire.sum()), max_link_load


def run_scale_bfs(
    dims: Tuple[int, int, int],
    scale: int,
    edgefactor: int = 16,
    seed: int = 1,
    dead_links: Iterable = (),
    shards: int = 1,
) -> ScaleBfsResult:
    """Run one flow-mode BFS over a ``dims`` torus of Fermi 2050 ranks.

    ``scale``/``edgefactor``/``seed`` parameterise the R-MAT graph
    (``2**scale`` vertices); the search starts at the first vertex with
    nonzero degree, and every message moves GPU to GPU under
    :data:`~repro.apenet.config.DEFAULT_CONFIG`.  ``shards`` has no
    effect: it is only recorded in the result, capped at the rank count.
    ``dead_links`` routes traffic around failures recovery-style; a
    partitioned torus raises ``ValueError``.
    """
    shape = TorusShape(*dims)
    R = shape.size
    routes = RouteTable(shape, dead_links)
    cal = calibrate(BufferKind.GPU, BufferKind.GPU)
    kernel = BfsKernelModel(FERMI_2050)

    n_vertices = 1 << scale
    graph = rmat_graph(scale, edgefactor, seed)
    degrees = np.diff(graph.row_ptr).astype(np.int64)
    root = int(np.nonzero(degrees > 0)[0][0])

    chunk = -(-n_vertices // R)
    shards = max(1, min(int(shards), R))

    levels = np.full(n_vertices, UNVISITED, dtype=np.int64)
    parents = np.full(n_vertices, UNVISITED, dtype=np.int64)
    levels[root] = 0
    parents[root] = root
    frontier = np.array([root], dtype=np.int64)

    total_ns = 0.0
    comm_bytes = 0
    max_link_load = 0
    frontier_peak = 0
    n_levels = 0
    allreduce_stages = 2 * math.ceil(math.log2(R)) if R > 1 else 0
    diameter = max(1, shape.nx // 2 + shape.ny // 2 + shape.nz // 2)
    allreduce_ns = allreduce_stages * cal.completion_latency(1, VOTE_BYTES, diameter)

    while frontier.size:
        frontier_peak = max(frontier_peak, int(frontier.size))
        neighbors, cand_parents = graph.neighbors_of_set(frontier)

        # -- per-rank kernel terms ------------------------------------------
        edges_per_rank = np.bincount(
            frontier // chunk, weights=degrees[frontier].astype(np.float64),
            minlength=R,
        )
        expand_ns = kernel.expand_ns(float(edges_per_rank.max()))

        n_owner = neighbors // chunk
        filter_ns = kernel.filter_ns(int(np.bincount(n_owner, minlength=R).max()))

        # -- comm: unique remote (src, dst) rank pairs ----------------------
        p_owner = cand_parents // chunk
        remote = p_owner != n_owner
        pair_keys = p_owner[remote] * R + n_owner[remote]
        uniq, counts = np.unique(pair_keys, return_counts=True)
        comm_ns, wire, peak = _level_comm(
            routes, DEFAULT_CONFIG.link_bandwidth, cal, uniq // R, uniq % R,
            counts.astype(np.int64),
        )
        comm_bytes += wire
        max_link_load = max(max_link_load, peak)

        n_levels += 1
        total_ns += expand_ns + comm_ns + filter_ns + allreduce_ns

        # -- absorb (first-occurrence parent, like _BfsRank.absorb) ---------
        fresh = levels[neighbors] == UNVISITED
        frontier, first = np.unique(neighbors[fresh], return_index=True)
        levels[frontier] = n_levels
        parents[frontier] = cand_parents[fresh][first]

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
