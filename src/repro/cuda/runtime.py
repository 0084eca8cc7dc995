"""The CUDA-like host runtime over the simulated platform.

One :class:`CudaRuntime` per host (node).  It owns:

* the node's one GPU (``gpu``),
* pinned host buffers, from the host memory's
  :class:`~repro.pcie.device.BufferHeap` (``host_alloc``, ``host_heap``),
* the one UVA lookup: :meth:`locate` resolves any pointer to its GPU
  (``None`` for host memory) and owning buffer, and
  :meth:`pointer_get_attributes` is the same lookup at the
  ``cuPointerGetAttribute`` call cost (§IV.A).  In this model the UVA
  space *is* the PCIe fabric address space.

The memcpy entry points live in :mod:`repro.cuda.memcpy`.

Convention: every method that costs *host* time is a **generator** the
calling simulation process drives with ``yield from``; its return value is
either a result object or a completion :class:`~repro.sim.core.Event` for
the device-side work it started.
"""

from __future__ import annotations

from typing import Optional

from ..gpu.device import GPUDevice
from ..pcie.device import MemoryBuffer
from ..pcie.topology import Platform
from ..sim import Simulator
from .config import DEFAULT_COSTS, CudaCosts

__all__ = ["CudaRuntime"]


class CudaRuntime:
    """Host-side CUDA runtime for one node and its GPU."""

    def __init__(
        self,
        sim: Simulator,
        platform: Platform,
        gpu: GPUDevice,
        costs: CudaCosts = DEFAULT_COSTS,
        name: str = "cuda",
    ):
        self.sim = sim
        self.platform = platform
        self.gpu = gpu
        self.costs = costs
        self.name = name
        # Pinned buffers; inbound DMA writes (NIC RX, GPU pushes) land in them.
        self.host_heap = platform.host_memory.heap

    # ------------------------------------------------------------------
    # Allocation (setup-time, no simulated cost)
    # ------------------------------------------------------------------

    def host_alloc(self, nbytes: int) -> MemoryBuffer:
        """Allocate a pinned host buffer (cudaMallocHost equivalent)."""
        return self.host_heap.alloc(nbytes)

    # ------------------------------------------------------------------
    # UVA pointer resolution
    # ------------------------------------------------------------------

    def locate(self, addr: int) -> tuple[Optional[GPUDevice], MemoryBuffer]:
        """Resolve a UVA pointer to ``(gpu, buffer)``, with ``gpu`` ``None``
        for pinned host memory (no simulated cost — internal use)."""
        gpu = self.gpu
        if gpu.gmem_window.contains(addr):
            return gpu, gpu.heap.buffer_at(addr)
        try:
            return None, self.host_heap.buffer_at(addr)
        except KeyError:
            raise KeyError(f"{self.name}: UVA pointer 0x{addr:x} is unknown") from None

    def pointer_get_attributes(self, addr: int):
        """``cuPointerGetAttribute``: :meth:`locate` after its (possibly
        expensive) call cost.

        Generator: ``gpu, buf = yield from rt.pointer_get_attributes(p)``.
        """
        yield self.sim.timeout(self.costs.attribute_query_cost)
        return self.locate(addr)
