"""Transmission job descriptors shared by the driver and TX engines."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..net.packet import MAX_PACKET_PAYLOAD, MessageInfo
from ..net.topology import Coord
from ..pcie.device import MemoryBuffer
from ..sim import Event
from .buflist import BufferKind

__all__ = ["TxJob", "fragment_message"]


def fragment_message(nbytes: int, chunk: int = MAX_PACKET_PAYLOAD) -> list[tuple[int, int]]:
    """Split a message into (offset, size) fragments of at most *chunk*."""
    if nbytes <= 0:
        raise ValueError("message must have a positive size")
    out = []
    off = 0
    while off < nbytes:
        take = min(chunk, nbytes - off)
        out.append((off, take))
        off += take
    return out


@dataclass
class TxJob:
    """One RDMA PUT, as handed from the driver to a TX engine.

    ``src_buf`` is the buffer holding ``src_addr``: a TX engine that reads
    it with plain PCIe reads takes each packet's bytes from it as it
    packetizes.
    """

    message: MessageInfo
    src_addr: int
    src_kind: BufferKind
    dst_coord: Coord
    src_coord: Coord
    local_done: Event
    src_buf: MemoryBuffer = field(repr=False)
    packets: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.packets:
            self.packets = fragment_message(self.message.total_bytes)

    @property
    def descriptor_bytes(self) -> int:
        """Wire size of the descriptor burst the driver posts."""
        return 64 * len(self.packets)
