"""Cluster-level plumbing: torus topology, packets, node composition.

Assembles the paper's §II system picture: the 3D-torus coordinate math
and its route table, the APEnet+ packet framing (header/footer plus
bounded payload), and the per-node composition of host, GPU, PCIe
fabric and NIC into a cluster the experiments drive.
"""

from .cluster import ApenetCluster, ClusterNode, build_apenet_cluster, torus_for_ranks
from .packet import MAX_PACKET_PAYLOAD, PACKET_HEADER_BYTES, ApePacket, MessageInfo
from .topology import Coord, TorusShape

__all__ = [
    "TorusShape",
    "Coord",
    "ApePacket",
    "MessageInfo",
    "PACKET_HEADER_BYTES",
    "MAX_PACKET_PAYLOAD",
    "ApenetCluster",
    "ClusterNode",
    "build_apenet_cluster",
    "torus_for_ranks",
]
