"""Cluster builders: whole multi-node systems in one call.

:func:`build_apenet_cluster` reproduces Cluster I: dual-socket Westmere
nodes, one Fermi GPU each (all C2050 but one C2070 — kept faithfully), an
APEnet+ card on PCIe Gen2 x8, nodes arranged in a 3D torus (4×2 for the
paper's eight nodes).

Each node gets its own PCIe fabric and CUDA runtime; the single global
:class:`~repro.sim.core.Simulator` ties everything together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..apenet.card import ApenetCard
    from ..apenet.config import ApenetConfig
    from ..apenet.rdma import ApenetEndpoint
    from ..apenet.torus import TorusLink
    from ..faults import FaultInjector, FaultPlan
    from ..recovery import RecoveryManager, RecoveryPolicy

from ..cuda.runtime import CudaRuntime
from ..gpu.device import GPUDevice
from ..gpu.specs import FERMI_2050, FERMI_2070, GPUSpec
from ..pcie.tlp import LinkParams
from ..pcie.topology import Platform, plx_platform, westmere_platform
from ..sim import Simulator
from .topology import Coord, TorusShape, healthy_table

__all__ = ["ClusterNode", "ApenetCluster", "build_apenet_cluster", "torus_for_ranks"]


def torus_for_ranks(np_: int) -> TorusShape:
    """The sub-torus of Cluster I the paper's runs used for NP nodes."""
    shapes = {1: (1, 1, 1), 2: (2, 1, 1), 4: (4, 1, 1), 8: (4, 2, 1)}
    if np_ not in shapes:
        raise ValueError(f"NP={np_} not in the paper's strong-scaling set")
    return TorusShape(*shapes[np_])


@dataclass
class ClusterNode:
    """Everything living on one cluster node."""

    rank: int
    coord: Coord
    platform: Platform
    runtime: CudaRuntime
    gpu: GPUDevice
    card: ApenetCard
    endpoint: ApenetEndpoint


@dataclass
class ApenetCluster:
    """A built torus of APEnet+ nodes."""

    sim: Simulator
    shape: TorusShape
    config: ApenetConfig
    nodes: list[ClusterNode] = field(default_factory=list)
    links: dict[tuple[int, int, int], TorusLink] = field(default_factory=dict)
    # The shared fault injector, when the cluster was built with one
    # (``faults=...``); its ``.stats`` carries the degradation accounting.
    faults: Optional[FaultInjector] = None
    # The recovery manager, when the cluster was built with systemic fault
    # awareness (``recovery=...``); its ``.stats`` carries the end-to-end
    # recovery accounting (link deaths, replays, degraded-mode fraction).
    recovery: Optional["RecoveryManager"] = None

    def node(self, rank: int) -> ClusterNode:
        """The node with linear rank *rank*."""
        return self.nodes[rank]

    def __len__(self) -> int:
        return len(self.nodes)


def build_apenet_cluster(
    sim: Simulator,
    shape: TorusShape,
    config: "ApenetConfig" = None,
    gpu_specs: Optional[list[GPUSpec]] = None,
    use_plx: bool = False,
    cuda_costs=None,
    faults: "FaultPlan | FaultInjector | None" = None,
    recovery: "RecoveryPolicy | RecoveryManager | None" = None,
) -> ApenetCluster:
    """Build a torus of APEnet+ nodes.

    ``gpu_specs`` — per-rank GPU spec; defaults to the paper's Cluster I
    (C2050 everywhere except a C2070 on the last rank).
    ``use_plx`` — put GPU and card behind a PLX switch (the "ideal
    platform" of Table I) instead of separate root-complex ports.
    ``faults`` — a :class:`~repro.faults.FaultPlan` (or a prebuilt
    :class:`~repro.faults.FaultInjector` to share across clusters):
    attaches fault injection + link-level retransmission to every torus
    link, PCIe fabric and Nios II.  None (the default) builds the
    fault-free cluster, bit-identical to a build without this argument.
    ``recovery`` — a :class:`~repro.recovery.RecoveryPolicy` (or prebuilt
    :class:`~repro.recovery.RecoveryManager`): attaches the systemic
    recovery layer — LinkFailure-consuming health monitor, dead-link
    detour routing, reliable PUT transactions, P2P->staging degradation.
    None (the default) keeps every code path bit-identical to a build
    without this argument.
    """
    from ..apenet.card import ApenetCard
    from ..apenet.config import DEFAULT_CONFIG
    from ..apenet.rdma import ApenetEndpoint
    from ..apenet.torus import TorusLink

    injector = None
    if faults is not None:
        from ..faults import FaultInjector, FaultPlan

        if isinstance(faults, FaultPlan):
            injector = FaultInjector(faults)
        elif isinstance(faults, FaultInjector):
            injector = faults
        else:
            raise TypeError(f"faults must be a FaultPlan or FaultInjector, got {faults!r}")

    manager = None
    if recovery is not None:
        from ..recovery import RecoveryManager, RecoveryPolicy

        if isinstance(recovery, RecoveryPolicy):
            manager = RecoveryManager(sim, shape, policy=recovery)
        elif isinstance(recovery, RecoveryManager):
            manager = recovery
        else:
            raise TypeError(
                f"recovery must be a RecoveryPolicy or RecoveryManager, got {recovery!r}"
            )
        if injector is not None and manager.fault_stats is None:
            manager.fault_stats = injector.stats

    if config is None:
        config = DEFAULT_CONFIG
    n = shape.size
    if gpu_specs is None:
        gpu_specs = [FERMI_2050] * n
        if n > 1:
            gpu_specs[n - 1] = FERMI_2070
    if len(gpu_specs) != n:
        raise ValueError(f"need {n} GPU specs, got {len(gpu_specs)}")

    cluster = ApenetCluster(sim, shape, config, faults=injector)
    # One route table for the whole torus, shared by every router.  With a
    # recovery manager it is the manager's healthy table, and the routers
    # ask the manager, whose table follows the dead links.
    routes = manager.healthy_routes if manager is not None else healthy_table(shape)
    card_link = LinkParams(gen=config.pcie_gen, lanes=config.pcie_lanes)
    gpu_link = LinkParams(gen=2, lanes=16)

    for rank, coord in enumerate(shape.coords()):
        builder = plx_platform if use_plx else westmere_platform
        plat = builder(sim, name=f"n{rank}")
        gpu = GPUDevice(sim, f"n{rank}.gpu0", gpu_specs[rank])
        plat.attach(gpu, "gpu", gpu_link)
        if cuda_costs is not None:
            runtime = CudaRuntime(sim, plat, gpu, costs=cuda_costs, name=f"n{rank}.cuda")
        else:
            runtime = CudaRuntime(sim, plat, gpu, name=f"n{rank}.cuda")
        card = ApenetCard(sim, f"n{rank}.ape", coord, routes, gpu, config)
        plat.attach(card, "nic", card_link)
        endpoint = ApenetEndpoint(card, runtime)
        cluster.nodes.append(ClusterNode(rank, coord, plat, runtime, gpu, card, endpoint))

    # Enable cross-endpoint operations (RDMA GET needs the peer table).
    endpoints = [n.endpoint for n in cluster.nodes]
    for ep in endpoints:
        ep.link_peers(endpoints)

    # Wire the torus: the (dim, direction) output of each card connects to
    # the opposite-direction input port of the neighbour.
    for coord, dim, direction, dst_coord in shape.links():
        src = cluster.nodes[shape.rank(coord)]
        dst = cluster.nodes[shape.rank(dst_coord)]
        port = dst.card.router.port(dim, -direction)
        link = TorusLink(
            sim,
            config.link_bandwidth,
            config.link_latency,
            port,
            name=f"{src.card.name}->{dst.card.name}[{dim},{direction:+d}]",
            src_coord=coord,
            dst_coord=dst_coord,
            dim=dim,
            direction=direction,
        )
        src.card.router.wire(dim, direction, link)
        cluster.links[(src.rank, dim, direction)] = link

    if injector is not None:
        for link in cluster.links.values():
            link.faults = injector
        for node in cluster.nodes:
            node.card.nios.faults = injector
            node.platform.fabric.faults = injector

    if manager is not None:
        cluster.recovery = manager
        for link in cluster.links.values():
            link.recovery = manager
        for node in cluster.nodes:
            node.card.router.recovery = manager
            node.endpoint.recovery = manager

    return cluster
