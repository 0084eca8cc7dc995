"""UVA pointer attributes — the ``cuPointerGetAttribute`` surface.

With Unified Virtual Addressing, "GPU buffers are assigned unique 64-bit
addresses, and they can be distinguished from plain host memory pointers by
using the cuPointerGetAttribute() call, which also returns other important
buffer properties like the GPU index and the CUDA context" (§IV.A).

In this model the UVA space *is* the PCIe fabric address space, so the
runtime resolves a pointer by routing its address.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["MemoryType", "PointerAttributes"]


class MemoryType(enum.Enum):
    """What a UVA pointer refers to."""

    HOST = "host"
    DEVICE = "device"


@dataclass(frozen=True)
class PointerAttributes:
    """Resolved properties of a UVA pointer."""

    addr: int
    memory_type: MemoryType
    device_index: Optional[int]  # None for host memory
    device_name: Optional[str]
    buffer_base: int
    buffer_size: int

    @property
    def is_device(self) -> bool:
        """True for GPU global-memory pointers."""
        return self.memory_type is MemoryType.DEVICE
