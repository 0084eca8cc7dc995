"""PCI Express fabric model: TLP math, links, switches, split transactions.

See :mod:`repro.pcie.fabric` for the transaction engines and
:mod:`repro.pcie.topology` for ready-made host platforms.
"""

from .analyzer import BusAnalyzer
from .device import (
    AddressWindow,
    BufferHeap,
    HostMemory,
    MemoryBuffer,
    OutOfMemoryError,
    PCIeDevice,
    ReadBehavior,
    WriteBehavior,
)
from .fabric import FabricLink, FabricNode, PCIeFabric, TransferRecord
from .tlp import (
    DEFAULT_MPS,
    DEFAULT_MRRS,
    LinkParams,
    Tlp,
    TlpKind,
    fragment,
    tlp_overhead,
    wire_size,
    write_efficiency,
)
from .topology import Platform, plx_platform, westmere_platform

__all__ = [
    "BusAnalyzer",
    "AddressWindow",
    "BufferHeap",
    "MemoryBuffer",
    "OutOfMemoryError",
    "HostMemory",
    "PCIeDevice",
    "ReadBehavior",
    "WriteBehavior",
    "FabricLink",
    "FabricNode",
    "PCIeFabric",
    "TransferRecord",
    "LinkParams",
    "Tlp",
    "TlpKind",
    "fragment",
    "tlp_overhead",
    "wire_size",
    "write_efficiency",
    "DEFAULT_MPS",
    "DEFAULT_MRRS",
    "Platform",
    "plx_platform",
    "westmere_platform",
]
