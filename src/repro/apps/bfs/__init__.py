"""Distributed level-synchronous BFS on GPU clusters (graph500-style).

Reproduces the application study of the paper's §VI: a breadth-first
search partitioned across GPUs, where per-level frontier exchanges ride
the simulated APEnet+ RDMA path so that the GPU-P2P transmit
optimisations show up as end-to-end traversal speedups.
"""

from .csr import CSRGraph, rmat_graph
from .distributed import BfsConfig, BfsResult, RankBreakdown, run_bfs
from .perf import BfsKernelModel
from .rmat import EDGEFACTOR, rmat_edges
from .serial import UNVISITED, serial_bfs, traversed_edges, validate_bfs

__all__ = [
    "rmat_edges",
    "EDGEFACTOR",
    "CSRGraph",
    "rmat_graph",
    "serial_bfs",
    "validate_bfs",
    "traversed_edges",
    "UNVISITED",
    "BfsKernelModel",
    "BfsConfig",
    "BfsResult",
    "RankBreakdown",
    "run_bfs",
]
