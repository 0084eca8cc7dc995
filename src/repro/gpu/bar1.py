"""The BAR1 access method: a mapped window into device memory.

BAR1 exposes a region of device memory on the GPU's second PCIe
memory-mapped address space, readable/writable with *standard* PCIe memory
operations (§III).  Constraints modelled from the paper:

* the aperture is small ("a few hundreds of megabytes ... a scarce
  resource") — allocation fails when it is exhausted;
* mapping "is an expensive operation, which requires a full reconfiguration
  of the GPU" — a fixed time cost charged to the caller;
* Fermi reads through BAR1 are extremely slow (150 MB/s, Table I);
  Kepler fixes this (1.6 GB/s).

The rate asymmetry lives in the GPU device's ``describe_read`` for the
BAR1 window; this module only manages the address-space bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .memory import GpuBuffer
from .specs import GPU_PAGE_SIZE

__all__ = ["Bar1Mapping", "Bar1Aperture", "Bar1Error"]


class Bar1Error(RuntimeError):
    """BAR1 aperture misuse or exhaustion."""


@dataclass
class Bar1Mapping:
    """An active window: BAR1 addresses <-> one device buffer."""

    bar1_addr: int
    buffer: GpuBuffer
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
    """Allocator for the BAR1 address window of one GPU."""

    def __init__(self, base: int, size: int, map_cost: float, gpu_name: str = "gpu"):
        self.base = base
        self.size = size
        self.map_cost = map_cost
        self.gpu_name = gpu_name
        self._free: list[tuple[int, int]] = [(base, size)]
        self._mappings: list[Bar1Mapping] = []

    @property
    def used(self) -> int:
        """Mapped bytes."""
        return self.size - sum(s for _, s in self._free)

    @property
    def free_bytes(self) -> int:
        """Unmapped aperture bytes."""
        return sum(s for _, s in self._free)

    @staticmethod
    def _round_up(n: int) -> int:
        return (n + GPU_PAGE_SIZE - 1) // GPU_PAGE_SIZE * GPU_PAGE_SIZE

    def map(self, buf: GpuBuffer) -> Bar1Mapping:
        """Map *buf* into the aperture.

        The *time* cost (``map_cost``, a full GPU reconfiguration) must be
        charged by the caller — typically the CUDA runtime layer yields it.
        """
        need = self._round_up(buf.size)
        for i, (addr, size) in enumerate(self._free):
            if size >= need:
                if size == need:
                    del self._free[i]
                else:
                    self._free[i] = (addr + need, size - need)
                mapping = Bar1Mapping(addr, buf, buf.size)
                self._mappings.append(mapping)
                return mapping
        raise Bar1Error(
            f"{self.gpu_name}: BAR1 aperture exhausted "
            f"({self.free_bytes} free, {buf.size} requested) — "
            "BAR1 is a scarce resource (32-bit BIOS limit)"
        )

    def translate(self, bar1_addr: int) -> tuple[GpuBuffer, int]:
        """Resolve a BAR1 address to (buffer, device_addr)."""
        for m in self._mappings:
            if m.bar1_addr <= bar1_addr < m.bar1_end:
                return m.buffer, m.device_addr(bar1_addr)
        raise Bar1Error(f"{self.gpu_name}: BAR1 address 0x{bar1_addr:x} not mapped")
