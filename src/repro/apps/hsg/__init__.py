"""Heisenberg Spin Glass over-relaxation: physics + distributed runs."""

from .distributed import HsgConfig, HsgResult, grid_for_ranks, run_hsg
from .lattice import SpinLattice, overrelax_spins
from .perf import SPIN_BYTES, HsgKernelModel

__all__ = [
    "SpinLattice",
    "overrelax_spins",
    "HsgKernelModel",
    "SPIN_BYTES",
    "HsgConfig",
    "HsgResult",
    "run_hsg",
    "grid_for_ranks",
]
