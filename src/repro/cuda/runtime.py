"""The CUDA-like host runtime over the simulated platform.

One :class:`CudaRuntime` per host (node).  It owns:

* the node's GPUs (``add_device``),
* pinned host buffers, from the host memory's
  :class:`~repro.pcie.device.BufferHeap` (``host_alloc``, ``host_heap``),
* the UVA pointer registry (:meth:`pointer_attributes` resolves any fabric
  address to host/device + owning buffer — the ``cuPointerGetAttribute``
  equivalent),
* memcpy entry points (see :mod:`repro.cuda.memcpy`).

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
from .pointer import MemoryType, PointerAttributes

__all__ = ["CudaRuntime"]


class CudaRuntime:
    """Host-side CUDA runtime for one node."""

    def __init__(
        self,
        sim: Simulator,
        platform: Platform,
        costs: CudaCosts = DEFAULT_COSTS,
        name: str = "cuda",
    ):
        self.sim = sim
        self.platform = platform
        self.costs = costs
        self.name = name
        self.devices: list[GPUDevice] = []
        # Pinned buffers; inbound DMA writes (NIC RX, GPU pushes) land in them.
        self.host_heap = platform.host_memory.heap

    # ------------------------------------------------------------------
    # Device management
    # ------------------------------------------------------------------

    def add_device(self, gpu: GPUDevice) -> int:
        """Register *gpu* with this runtime; returns its device index."""
        self.devices.append(gpu)
        return len(self.devices) - 1

    def device(self, index: int) -> GPUDevice:
        """The GPU with device index *index*."""
        return self.devices[index]

    # ------------------------------------------------------------------
    # Allocation (setup-time, no simulated cost)
    # ------------------------------------------------------------------

    def host_alloc(self, nbytes: int) -> MemoryBuffer:
        """Allocate a pinned host buffer (cudaMallocHost equivalent)."""
        return self.host_heap.alloc(nbytes)

    def device_alloc(self, device_index: int, nbytes: int):
        """Allocate device memory (cudaMalloc equivalent)."""
        return self.devices[device_index].alloc(nbytes)

    # ------------------------------------------------------------------
    # UVA pointer resolution
    # ------------------------------------------------------------------

    def pointer_attributes(self, addr: int) -> PointerAttributes:
        """Resolve a UVA pointer (no simulated cost — internal use)."""
        for i, gpu in enumerate(self.devices):
            if gpu.gmem_window.contains(addr):
                buf = gpu.heap.buffer_at(addr)
                return PointerAttributes(
                    addr=addr,
                    memory_type=MemoryType.DEVICE,
                    device_index=i,
                    device_name=gpu.name,
                    buffer_base=buf.addr,
                    buffer_size=buf.size,
                )
        try:
            host = self.host_heap.buffer_at(addr)
        except KeyError:
            raise KeyError(f"{self.name}: UVA pointer 0x{addr:x} is unknown") from None
        return PointerAttributes(
            addr=addr,
            memory_type=MemoryType.HOST,
            device_index=None,
            device_name=None,
            buffer_base=host.addr,
            buffer_size=host.size,
        )

    def pointer_get_attributes(self, addr: int):
        """``cuPointerGetAttribute`` with its (possibly expensive) call cost.

        Generator: ``attrs = yield from rt.pointer_get_attributes(p)``.
        """
        yield self.sim.timeout(self.costs.attribute_query_cost)
        return self.pointer_attributes(addr)

    # ------------------------------------------------------------------
    # Data access helpers used by the copy paths
    # ------------------------------------------------------------------

    def owner_gpu(self, addr: int) -> Optional[GPUDevice]:
        """The registered GPU whose gmem window contains *addr*, if any."""
        for gpu in self.devices:
            if gpu.gmem_window.contains(addr):
                return gpu
        return None
