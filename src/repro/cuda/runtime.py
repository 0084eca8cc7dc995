"""The CUDA-like host runtime over the simulated platform.

One :class:`CudaRuntime` per host (node).  It owns:

* the node's GPUs (``add_device``),
* a pinned-host-buffer allocator carved out of the host-memory window,
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

import bisect
from typing import Optional

import numpy as np

from ..gpu.device import GPUDevice
from ..pcie.device import MemoryBuffer
from ..pcie.topology import Platform
from ..sim import Simulator
from .config import DEFAULT_COSTS, CudaCosts
from .pointer import MemoryType, PointerAttributes

__all__ = ["HostBuffer", "CudaRuntime"]

# Pinned host allocations live here inside the DRAM window (4 GiB up).
_HOST_HEAP_BASE = 0x1_0000_0000


class HostBuffer(MemoryBuffer):
    """A pinned host-memory allocation with lazy real backing."""


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
        self._host_brk = platform.host_memory.windows[0].base + _HOST_HEAP_BASE
        # Sorted host-buffer index for address resolution.
        self._host_bufs: list[HostBuffer] = []
        self._host_starts: list[int] = []
        # Inbound DMA writes (NIC RX, GPU pushes) land in our buffers.
        platform.host_memory.delivery_hooks.append(self._on_dma_write)

    def _on_dma_write(self, addr: int, nbytes: int, payload) -> None:
        buf = self._find_host(addr)
        if buf is None:
            return  # write outside the CUDA heap (e.g. event-queue-less spots)
        data = np.asarray(payload, dtype=np.uint8)
        buf.write_bytes(addr, data[:nbytes])

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

    def host_alloc(self, nbytes: int) -> HostBuffer:
        """Allocate a host buffer (cudaMallocHost equivalent)."""
        if nbytes <= 0:
            raise ValueError("host allocation must be positive")
        # 4 KB alignment like the host page size.
        size = (nbytes + 4095) // 4096 * 4096
        buf = HostBuffer(self._host_brk, nbytes)
        self._host_brk += size
        idx = bisect.bisect(self._host_starts, buf.addr)
        self._host_starts.insert(idx, buf.addr)
        self._host_bufs.insert(idx, buf)
        return buf

    def device_alloc(self, device_index: int, nbytes: int):
        """Allocate device memory (cudaMalloc equivalent)."""
        return self.devices[device_index].alloc(nbytes)

    # ------------------------------------------------------------------
    # UVA pointer resolution
    # ------------------------------------------------------------------

    def _find_host(self, addr: int) -> Optional[HostBuffer]:
        idx = bisect.bisect(self._host_starts, addr) - 1
        if idx >= 0 and self._host_bufs[idx].contains(addr):
            return self._host_bufs[idx]
        return None

    def pointer_attributes(self, addr: int) -> PointerAttributes:
        """Resolve a UVA pointer (no simulated cost — internal use)."""
        for i, gpu in enumerate(self.devices):
            if gpu.gmem_window.contains(addr):
                buf = gpu.allocator.buffer_at(addr)
                return PointerAttributes(
                    addr=addr,
                    memory_type=MemoryType.DEVICE,
                    device_index=i,
                    device_name=gpu.name,
                    buffer_base=buf.addr,
                    buffer_size=buf.size,
                )
        host = self._find_host(addr)
        if host is not None:
            return PointerAttributes(
                addr=addr,
                memory_type=MemoryType.HOST,
                device_index=None,
                device_name=None,
                buffer_base=host.addr,
                buffer_size=host.size,
            )
        raise KeyError(f"{self.name}: UVA pointer 0x{addr:x} is unknown")

    def pointer_get_attributes(self, addr: int):
        """``cuPointerGetAttribute`` with its (possibly expensive) call cost.

        Generator: ``attrs = yield from rt.pointer_get_attributes(p)``.
        """
        yield self.sim.timeout(self.costs.attribute_query_cost)
        return self.pointer_attributes(addr)

    # ------------------------------------------------------------------
    # Data access helpers used by the copy paths
    # ------------------------------------------------------------------

    def host_buffer_at(self, addr: int) -> HostBuffer:
        """The host buffer containing *addr* (raises if none)."""
        buf = self._find_host(addr)
        if buf is None:
            raise KeyError(f"{self.name}: no host buffer at 0x{addr:x}")
        return buf

    def owner_gpu(self, addr: int) -> Optional[GPUDevice]:
        """The registered GPU whose gmem window contains *addr*, if any."""
        for gpu in self.devices:
            if gpu.gmem_window.contains(addr):
                return gpu
        return None
