"""The BAR1 access method: a mapped window into device memory.

BAR1 exposes a region of device memory on the GPU's second PCIe
memory-mapped address space, readable/writable with *standard* PCIe memory
operations (§III).  Constraints modelled from the paper:

* the aperture is small ("a few hundreds of megabytes ... a scarce
  resource") — mapping fails when it is exhausted;
* mapping "is an expensive operation, which requires a full reconfiguration
  of the GPU" — the caller charges ``GPUSpec.bar1_map_cost``;
* Fermi reads through BAR1 are extremely slow (150 MB/s, Table I);
  Kepler fixes this (1.6 GB/s).

The rate asymmetry lives in the GPU device's ``describe_read`` for the
BAR1 window.  The model reads through BAR1 and never writes through it:
the BAR1-TX extension and Table I's BAR1 rows are reads, and peers write
GPU memory with P2P posted writes.  This module only hands out windows,
from one :class:`~repro.pcie.device.BufferHeap` of 64 KB pages; a read's
bytes come from the mapped buffer its transfer names.
"""

from __future__ import annotations

from ..pcie.device import BufferHeap, MemoryBuffer, OutOfMemoryError
from .specs import GPU_PAGE_SIZE

__all__ = ["Bar1Aperture", "Bar1Error"]


class Bar1Error(RuntimeError):
    """BAR1 aperture misuse or exhaustion."""


class Bar1Aperture:
    """The BAR1 address window of one GPU, mapped buffer by buffer."""

    def __init__(self, base: int, size: int, gpu_name: str):
        self._windows = BufferHeap(base, size, GPU_PAGE_SIZE, f"{gpu_name}.bar1")

    def map(self, buf: MemoryBuffer) -> int:
        """Map *buf* into the aperture; returns the window's BAR1 address
        (the caller charges the time)."""
        try:
            window = self._windows.alloc(buf.size)
        except OutOfMemoryError as exc:
            raise Bar1Error(
                f"BAR1 aperture exhausted: {exc} — "
                "BAR1 is a scarce resource (32-bit BIOS limit)"
            ) from exc
        return window.addr
