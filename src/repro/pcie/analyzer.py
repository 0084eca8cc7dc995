"""Bus analyzer: an interposer recording traffic on one fabric link.

Models the "PCIe X8 Gen2 active interposer" from the paper's Fig 3 setup.
Attach to a link, run traffic, then read the captured TLPs from
:attr:`BusAnalyzer.records` (the fig3 experiment derives its phase timing
from them).
"""

from __future__ import annotations

from ..sim import Simulator
from .fabric import FabricLink, TransferRecord

__all__ = ["BusAnalyzer"]


class BusAnalyzer:
    """Records every TLP crossing the tapped link."""

    def __init__(self, sim: Simulator, name: str = "analyzer"):
        self.sim = sim
        self.name = name
        self.records: list[TransferRecord] = []

    def attach(self, link: FabricLink) -> None:
        """Start capturing traffic on *link* (both directions)."""
        link.taps.append(self.records.append)
