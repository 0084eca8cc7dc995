"""The GPU as a PCIe device: memory windows, protocol engines, DMA.

GPU memory is reached the ways the paper reaches it (§III.A, §IV), and
only those.  Every node holds one GPU on its own PCIe fabric, as in the
paper's clusters, so one fixed base places it.  Address layout (one
contiguous region from that base):

* ``[base, base+vram)`` — device global memory.  Peers write into it
  with GPUDirect P2P posted writes, which land directly in buffers; it is
  read only through the mailbox protocol (:mod:`repro.gpu.p2p`), so a
  plain PCIe read of this window raises.  Buffers come from
  :attr:`GPUDevice.heap`, a :class:`~repro.pcie.device.BufferHeap` of
  64 KB pages, the unit the P2P protocol maps.
* BAR1 aperture — buffers mapped per window (:mod:`repro.gpu.bar1`) for
  plain PCIe reads, catastrophically slow on Fermi; a write into it
  raises.
* mailbox — where initiators post P2P read-request descriptors
  (write-only).

The GPU's one copy engine (:attr:`GPUDevice.dma`) serves ``cudaMemcpy``
in both staging directions.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..pcie.device import BufferHeap, MemoryBuffer, PCIeDevice, ReadBehavior, WriteBehavior
from ..sim import Channel, Simulator
from .bar1 import Bar1Aperture
from .dma import DmaEngine
from .kernels import ComputeEngine
from .p2p import P2PReadEngine, P2PReadRequest
from .specs import GPU_PAGE_SIZE, GPUSpec

__all__ = ["GPUDevice"]

# The fabric address of a node's one GPU.
_GPU_BASE = 0x200_0000_0000


class GPUDevice(PCIeDevice):
    """One NVIDIA GPU on the fabric."""

    def __init__(self, sim: Simulator, name: str, spec: GPUSpec):
        super().__init__(sim, name)
        self.spec = spec
        self.gmem_window = self.add_window(_GPU_BASE, spec.vram, "gmem")
        bar1_base = _GPU_BASE + ((spec.vram + GPU_PAGE_SIZE) // GPU_PAGE_SIZE) * GPU_PAGE_SIZE
        self.bar1_window = self.add_window(bar1_base, spec.bar1_size, "bar1")
        mailbox_base = bar1_base + spec.bar1_size
        self.mailbox_window = self.add_window(mailbox_base, GPU_PAGE_SIZE, "mailbox")

        self.heap = BufferHeap(_GPU_BASE, spec.vram, GPU_PAGE_SIZE, name)
        self.bar1 = Bar1Aperture(bar1_base, spec.bar1_size, name)

        self.p2p_engine = P2PReadEngine(sim, self)
        self.dma = DmaEngine(sim, self)
        self.compute = ComputeEngine(sim, name)

        self._bar1_read = ReadBehavior(
            latency=spec.bar1_read_latency,
            limiter=Channel(sim, spec.bar1_read_rate, name=f"{name}.bar1rd"),
        )
        # P2P writes are link-limited: the GPU "has no problem sustaining
        # the PCIe X8 Gen2 traffic" (§V.A).
        self._gmem_write = WriteBehavior(on_write=self._on_mem_write)
        self._mailbox_write = WriteBehavior(on_write=self._on_mailbox_write)

    # ------------------------------------------------------------------
    # PCIe target behaviour
    # ------------------------------------------------------------------

    def describe_read(self, addr: int) -> ReadBehavior:
        if self.bar1_window.contains(addr):
            return self._bar1_read
        raise PermissionError(
            f"{self.name}: only BAR1 serves plain reads (0x{addr:x}); global "
            "memory is read through the mailbox protocol"
        )

    def describe_write(self, addr: int) -> WriteBehavior:
        if self.gmem_window.contains(addr):
            return self._gmem_write
        if self.mailbox_window.contains(addr):
            return self._mailbox_write
        raise PermissionError(f"{self.name}: the BAR1 window is read-only (0x{addr:x})")

    def _on_mem_write(self, addr: int, nbytes: int, payload: Any) -> None:
        if payload is None:
            return
        data = np.asarray(payload, dtype=np.uint8)
        buf = self.heap.buffer_at(addr)  # raises if nothing is there
        buf.write_bytes(addr, data[:nbytes])

    def _on_mailbox_write(self, addr: int, nbytes: int, payload: Any) -> None:
        if payload is None:
            return  # doorbell-only traffic
        requests = payload if isinstance(payload, (list, tuple)) else [payload]
        for req in requests:
            if not isinstance(req, P2PReadRequest):
                raise TypeError(
                    f"{self.name}: mailbox expects P2PReadRequest, got {type(req)!r}"
                )
            self.p2p_engine.submit(req)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def alloc(self, nbytes: int) -> MemoryBuffer:
        """Allocate device memory, in whole 64 KB pages."""
        return self.heap.alloc(nbytes)
