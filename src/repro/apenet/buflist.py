"""BUF_LIST: the card's registered-buffer table.

"The receiving (RX) data path manages buffer validation (the BUF_LIST)"
(§III.B); after registration "a buffer — either a host or GPU, uniquely
identified by its (UVA) 64-bit virtual address and process ID — can be the
target of a PUT operation coming from another node" (§IV.A).

The firmware scans the list linearly: the RX processing time "linearly
scales with the number of registered buffers" (§IV) — :meth:`lookup`
returns how many entries were visited so the RX engine can charge the
Nios II accordingly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["BufferKind", "RegisteredBuffer", "BufList"]


class BufferKind(enum.Enum):
    """Where a registered buffer lives."""

    HOST = "host"
    GPU = "gpu"


@dataclass
class RegisteredBuffer:
    """One BUF_LIST entry."""

    vaddr: int
    nbytes: int
    kind: BufferKind

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.vaddr + self.nbytes

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        """True if [addr, addr+nbytes) is inside this buffer."""
        return self.vaddr <= addr and addr + nbytes <= self.end


class BufList:
    """Linear-scan registered-buffer table (firmware-faithful)."""

    def __init__(self, name: str = "buflist"):
        self.name = name
        self._entries: list[RegisteredBuffer] = []

    def __len__(self) -> int:
        return len(self._entries)

    def register(self, entry: RegisteredBuffer) -> None:
        """Append an entry; overlapping registrations are rejected."""
        for existing in self._entries:
            if not (entry.end <= existing.vaddr or existing.end <= entry.vaddr):
                raise ValueError(
                    f"{self.name}: registration [{entry.vaddr:#x},{entry.end:#x}) "
                    f"overlaps existing [{existing.vaddr:#x},{existing.end:#x})"
                )
        self._entries.append(entry)

    def lookup(self, addr: int, nbytes: int = 1) -> tuple[Optional[RegisteredBuffer], int]:
        """Scan for the buffer containing the range; returns (entry, visited).

        ``visited`` is the number of entries examined (the linear-scan cost
        driver).  ``entry`` is None when validation fails — the firmware
        drops such packets.
        """
        visited = 0
        for e in self._entries:
            visited += 1
            if e.contains(addr, nbytes):
                return e, visited
        return None, visited

    def find(self, addr: int) -> Optional[RegisteredBuffer]:
        """Convenience lookup without the cost accounting."""
        entry, _ = self.lookup(addr)
        return entry
