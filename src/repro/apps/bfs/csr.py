"""Compressed-sparse-row graph storage (the GPU-friendly layout).

Supporting data structure for the §VI BFS application study: adjacency
stored as offset/edge arrays so frontier expansion is a contiguous,
coalesced scan — the layout real GPU graph500 kernels use, which keeps
the simulated per-level work model faithful.  :func:`rmat_graph` is the
one builder of the BFS graphs: graph500's kernel 1, run once per graph.
"""

from __future__ import annotations

import numpy as np

from .rmat import EDGEFACTOR, rmat_edges

__all__ = ["CSRGraph", "rmat_graph"]


class CSRGraph:
    """An undirected graph in CSR form (both edge directions stored)."""

    def __init__(self, n_vertices: int, row_ptr: np.ndarray, col_idx: np.ndarray):
        self.n_vertices = int(n_vertices)
        self.row_ptr = row_ptr
        self.col_idx = col_idx

    @classmethod
    def from_edges(cls, n_vertices: int, edges: np.ndarray) -> "CSRGraph":
        """Build the undirected graph of a (2, M) edge array.

        Self-loops are dropped, both directions of each edge are stored and
        duplicate edges are removed (graph500 rules).
        """
        src, dst = np.asarray(edges[0]), np.asarray(edges[1])
        if src.min(initial=0) < 0 or max(src.max(initial=0), dst.max(initial=0)) >= n_vertices:
            raise ValueError("edge endpoint out of range")
        keep = src != dst  # no self-loops
        src, dst = src[keep], dst[keep]
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if len(src):
            key = src * n_vertices + dst
            _, unique_idx = np.unique(key, return_index=True)
            src, dst = src[unique_idx], dst[unique_idx]
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        row_ptr = np.zeros(n_vertices + 1, dtype=np.int64)
        counts = np.bincount(src, minlength=n_vertices)
        row_ptr[1:] = np.cumsum(counts)
        return cls(n_vertices, row_ptr, dst.astype(np.int64))

    @property
    def n_directed_edges(self) -> int:
        """Stored (directed) edge count."""
        return len(self.col_idx)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of vertex *v*."""
        return self.col_idx[self.row_ptr[v] : self.row_ptr[v + 1]]

    def neighbors_of_set(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbors of *vertices* + matching parent ids.

        Returns (neighbor_ids, parent_ids), the vectorized frontier
        expansion a level-synchronous BFS performs.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self.row_ptr[vertices]
        ends = self.row_ptr[vertices + 1]
        lengths = ends - starts
        total = int(lengths.sum())
        if total == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        # Vectorized multi-range gather.
        offsets = np.repeat(starts, lengths)
        within = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(lengths)[:-1]]), lengths
        )
        neighbor_ids = self.col_idx[offsets + within]
        parent_ids = np.repeat(vertices, lengths)
        return neighbor_ids, parent_ids


#: The most recently built graph as ``((scale, edgefactor, seed), graph)``.
#: It is read as one tuple and replaced as one tuple, so two concurrent
#: callers can at worst build the same graph twice.
_last_graph: tuple = (None, None)


def rmat_graph(scale: int, edgefactor: int = EDGEFACTOR, seed: int = 1) -> CSRGraph:
    """The CSR form of :func:`~repro.apps.bfs.rmat.rmat_edges`'s graph.

    graph500 builds its graph once (kernel 1) and runs every search on it
    (kernel 2).  The graph is a pure function of ``(scale, edgefactor,
    seed)``, so the most recently built one is kept and returned again for
    the same arguments.  Its ``row_ptr`` and ``col_idx`` are read-only, so
    no caller can change the graph another caller shares.  A call with new
    arguments drops the kept graph before it builds the next one, so the
    process holds at most one.
    """
    global _last_graph
    key = (scale, edgefactor, seed)
    held = _last_graph
    if held[0] == key:
        return held[1]
    _last_graph = held = (None, None)  # let the old graph go first
    graph = CSRGraph.from_edges(1 << scale, rmat_edges(scale, edgefactor, seed=seed))
    graph.row_ptr.flags.writeable = False
    graph.col_idx.flags.writeable = False
    _last_graph = (key, graph)
    return graph
