"""Builder for the InfiniBand comparison clusters.

* Cluster I (``pcie_lanes=4``): "a Mellanox ConnectX-2 board, plugged in a
  PCIe X4 slot (due to motherboard constraints)" — the handicap the paper
  notes for its own IB numbers.
* Cluster II (``pcie_lanes=8``): 12 Westmere nodes, two M2075 per node,
  ConnectX-2 on x8 — where the MVAPICH2/OSU reference numbers come from.

Every node holds one M2075, as every APEnet+ node holds one GPU: a run
that models Cluster II's two GPUs per node gives each its own rank and
HCA share (the BFS app's x4 slot).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cuda.runtime import CudaRuntime
from ..gpu.device import GPUDevice
from ..gpu.specs import FERMI_2075
from ..pcie.tlp import LinkParams
from ..pcie.topology import Platform, westmere_platform
from ..sim import Simulator
from ..units import GBps
from .card import IBCard
from .fabric import IBFabric

__all__ = ["IBClusterNode", "IBCluster", "build_ib_cluster"]


@dataclass
class IBClusterNode:
    """Everything on one IB-cluster node."""

    rank: int
    platform: Platform
    runtime: CudaRuntime
    gpu: GPUDevice
    hca: IBCard


@dataclass
class IBCluster:
    """A built switched-fabric cluster."""

    sim: Simulator
    fabric: IBFabric
    nodes: list[IBClusterNode] = field(default_factory=list)

    def node(self, rank: int) -> IBClusterNode:
        """Node by rank (== LID by construction)."""
        return self.nodes[rank]

    def __len__(self) -> int:
        return len(self.nodes)


# Effective HCA DMA-read ceilings by slot width (Gen2, after protocol
# overheads): the x4 slot roughly halves achievable IB bandwidth.
_READ_RATE_BY_LANES = {8: GBps(3.2), 4: GBps(1.55)}


def build_ib_cluster(
    sim: Simulator,
    n_nodes: int,
    pcie_lanes: int = 8,
) -> IBCluster:
    """Build *n_nodes* Westmere nodes around one IB switch."""
    if pcie_lanes not in _READ_RATE_BY_LANES:
        raise ValueError(f"unsupported HCA slot width x{pcie_lanes}")
    fabric = IBFabric(sim)
    cluster = IBCluster(sim, fabric)
    hca_link = LinkParams(gen=2, lanes=pcie_lanes)
    gpu_link = LinkParams(gen=2, lanes=16)
    for rank in range(n_nodes):
        plat = westmere_platform(sim, name=f"ib{rank}")
        gpu = GPUDevice(sim, f"ib{rank}.gpu0", FERMI_2075)
        plat.attach(gpu, "gpu", gpu_link)
        runtime = CudaRuntime(sim, plat, gpu, name=f"ib{rank}.cuda")
        hca = IBCard(
            sim,
            f"ib{rank}.hca",
            fabric,
            pcie_read_rate=_READ_RATE_BY_LANES[pcie_lanes],
        )
        plat.attach(hca, "nic", hca_link)
        cluster.nodes.append(IBClusterNode(rank, plat, runtime, gpu, hca))
    return cluster
