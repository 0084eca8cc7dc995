"""Network packet format for the APEnet+ torus.

"Network packets carry the 64-bit destination virtual memory address in the
header, so when they land onto the destination card, the BUF_LIST is used to
distinguish GPU from host buffers" (§IV.A).

Packets are at most 4 KiB of payload plus a fixed header/footer envelope.
``data`` holds the fragment's bytes as the TX engine read them from the
source buffer (``None`` when that buffer is untracked).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from .topology import Coord

__all__ = ["ApePacket", "PACKET_HEADER_BYTES", "MAX_PACKET_PAYLOAD", "MessageInfo"]

# Header + footer envelope (routing info, 64-bit dst vaddr, CRC).
PACKET_HEADER_BYTES = 32
# APEnet+ fragments messages into 4 KiB packets (the RX figure "1.2 GB/s for
# 4 KB packets" and the TX "single packet request of up to 4KB" both use it).
MAX_PACKET_PAYLOAD = 4096

_msg_ids = itertools.count(1)


def next_message_id() -> int:
    """Fresh message id for fragmentation bookkeeping."""
    return next(_msg_ids)


@dataclass
class MessageInfo:
    """Per-message metadata shared by its fragments."""

    msg_id: int
    total_bytes: int
    src_rank: int
    dst_addr: int
    tag: Any = None


@dataclass
class ApePacket:
    """One fragment on the wire."""

    dst_coord: Coord
    src_coord: Coord
    dst_addr: int  # 64-bit destination virtual address of THIS fragment
    nbytes: int  # payload bytes in this fragment
    message: MessageInfo
    data: Optional[Any] = field(default=None, repr=False)

    def __post_init__(self):
        if self.nbytes <= 0:
            raise ValueError("packet payload must be positive")
        if self.nbytes > MAX_PACKET_PAYLOAD:
            raise ValueError(
                f"packet payload {self.nbytes} exceeds {MAX_PACKET_PAYLOAD}"
            )

    @property
    def size(self) -> int:
        """Wire footprint (payload + envelope) for FIFO/link accounting."""
        return self.nbytes + PACKET_HEADER_BYTES
