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
BAR1 window; this module only hands out and resolves windows, from one
:class:`~repro.pcie.device.BufferHeap` of 64 KB pages.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pcie.device import BufferHeap, MemoryBuffer, OutOfMemoryError
from .specs import GPU_PAGE_SIZE

__all__ = ["Bar1Mapping", "Bar1Aperture", "Bar1Error"]


class Bar1Error(RuntimeError):
    """BAR1 aperture misuse or exhaustion."""


@dataclass
class Bar1Mapping:
    """An active window: BAR1 addresses <-> one device buffer."""

    bar1_addr: int
    buffer: MemoryBuffer
    size: int

    @property
    def bar1_end(self) -> int:
        """One past the last mapped BAR1 byte."""
        return self.bar1_addr + self.size

    def device_addr(self, bar1_addr: int) -> int:
        """Translate a BAR1 address to the underlying device address."""
        if not self.bar1_addr <= bar1_addr < self.bar1_end:
            raise Bar1Error(f"BAR1 address 0x{bar1_addr:x} outside mapping")
        return self.buffer.addr + (bar1_addr - self.bar1_addr)


class Bar1Aperture:
    """The BAR1 address window of one GPU, mapped buffer by buffer."""

    def __init__(self, base: int, size: int, gpu_name: str):
        self.gpu_name = gpu_name
        self._windows = BufferHeap(base, size, GPU_PAGE_SIZE, f"{gpu_name}.bar1")
        self._mappings: dict[int, Bar1Mapping] = {}

    def map(self, buf: MemoryBuffer) -> Bar1Mapping:
        """Map *buf* into the aperture (the caller charges the time)."""
        try:
            window = self._windows.alloc(buf.size)
        except OutOfMemoryError as exc:
            raise Bar1Error(
                f"BAR1 aperture exhausted: {exc} — "
                "BAR1 is a scarce resource (32-bit BIOS limit)"
            ) from exc
        mapping = Bar1Mapping(window.addr, buf, buf.size)
        self._mappings[window.addr] = mapping
        return mapping

    def translate(self, bar1_addr: int) -> tuple[MemoryBuffer, int]:
        """Resolve a BAR1 address to (buffer, device_addr)."""
        try:
            window = self._windows.buffer_at(bar1_addr)
        except KeyError:
            raise Bar1Error(f"{self.gpu_name}: BAR1 address 0x{bar1_addr:x} not mapped") from None
        mapping = self._mappings[window.addr]
        return mapping.buffer, mapping.device_addr(bar1_addr)
