"""Virtual-to-physical translation tables kept on the card.

Two flavours (§IV):

* ``HOST_V2P`` — host pages are 4 KB; registering a host buffer
  installs the pages it covers and pays per newly installed page;
* ``GPU_V2P`` — "For each GPU card on the bus, a 4-level GPU V2P page table
  is maintained, which resolves virtual addresses to GPU page descriptors"
  (64 KB pages — reuses :class:`repro.gpu.memory.GpuPageTable`).

Both have constant lookup depth; the *time* cost is charged by the RX/TX
engines via the Nios II (``rx_v2p_cost``), not here.
"""

from __future__ import annotations

from ..gpu.memory import GpuPageTable

__all__ = ["HostV2P", "HOST_PAGE_SIZE", "GpuV2PSet"]

HOST_PAGE_SIZE = 4096


class HostV2P:
    """Host-side page map (4 KB granularity).

    Registration reads only how many pages a range newly installs, so the
    map keeps just the base address of every mapped page.
    """

    def __init__(self):
        self._pages: set[int] = set()

    def map_range(self, vaddr: int, nbytes: int) -> int:
        """Install identity mappings covering [vaddr, vaddr+nbytes).

        Returns the number of pages newly installed.
        """
        if nbytes <= 0:
            raise ValueError("mapping needs a positive size")
        first = vaddr // HOST_PAGE_SIZE
        last = (vaddr + nbytes - 1) // HOST_PAGE_SIZE
        before = len(self._pages)
        self._pages.update(page * HOST_PAGE_SIZE for page in range(first, last + 1))
        return len(self._pages) - before


class GpuV2PSet:
    """The per-GPU collection of 4-level GPU page tables."""

    def __init__(self, name: str = "gpu-v2p"):
        self.name = name
        self._tables: dict[int, GpuPageTable] = {}

    def table(self, gpu_index: int) -> GpuPageTable:
        """The (lazily created) table for GPU *gpu_index*."""
        if gpu_index not in self._tables:
            self._tables[gpu_index] = GpuPageTable(f"{self.name}[{gpu_index}]")
        return self._tables[gpu_index]
