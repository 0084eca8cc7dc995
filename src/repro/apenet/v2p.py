"""Virtual-to-physical translation tables kept on the card.

One :class:`PageMap` per table (§IV):

* the host V2P table — host pages are 4 KB (``card.host_v2p``);
* the GPU V2P table of the node's one GPU — 64 KB pages, the unit of
  the GPUDirect P2P page descriptors (``card.gpu_v2p``).

Registering a buffer installs the pages it covers and pays per newly
installed page.  The firmware's 4-level walk has "constant traversal
time", so the RX engine charges it as the constant ``rx_v2p_cost`` via
the Nios II, not here.
"""

from __future__ import annotations

from ..pcie.device import HOST_PAGE_SIZE

__all__ = ["PageMap", "HOST_PAGE_SIZE"]


class PageMap:
    """The set of mapped page numbers of one V2P table.

    Registration reads only how many pages a range newly installs and the
    PUT path only whether a page is mapped, so nothing more is kept.
    """

    def __init__(self, page_size: int):
        self.page_size = page_size
        self._pages: set[int] = set()

    def map_range(self, vaddr: int, nbytes: int) -> int:
        """Map every page of [vaddr, vaddr+nbytes); returns how many are new."""
        if nbytes <= 0:
            raise ValueError("mapping needs a positive size")
        before = len(self._pages)
        self._pages.update(
            range(vaddr // self.page_size, (vaddr + nbytes - 1) // self.page_size + 1)
        )
        return len(self._pages) - before

    def is_mapped(self, vaddr: int) -> bool:
        """True if the page holding *vaddr* is mapped."""
        return vaddr // self.page_size in self._pages
