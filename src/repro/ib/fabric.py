"""InfiniBand fabric: a central crossbar switch with point-to-point links.

Models the Mellanox MTS3600 (Cluster I) / IS5030 (Cluster II) switches: one
full-crossbar stage, per-port full-duplex links.  Unlike the APEnet+ torus,
there is no path sharing between distinct source-destination pairs — the
reason IB shrugs off the BFS all-to-all that congests the 4×2 torus
(Table IV).

QDR 4X: 40 Gbit/s signalling, 32 Gbit/s data (8b/10b) = 4 GB/s per
direction per port.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim import Channel, Simulator
from ..units import Gbps, ns, us

__all__ = ["IBFabric", "IBPort", "IB_QDR_BANDWIDTH"]

IB_QDR_BANDWIDTH = Gbps(32)  # 4 GB/s data per direction
IB_PORT_LATENCY = ns(250.0)  # serdes + cable, per direction
IB_SWITCH_LATENCY = us(0.1)  # crossbar forwarding


class IBPort:
    """One switch port: an up (host->switch) and down (switch->host) wire."""

    def __init__(self, sim: Simulator, lid: int):
        self.lid = lid
        self.up = Channel(sim, IB_QDR_BANDWIDTH, IB_PORT_LATENCY, name=f"lid{lid}.up")
        self.down = Channel(sim, IB_QDR_BANDWIDTH, IB_PORT_LATENCY, name=f"lid{lid}.down")
        # The attached HCA's delivery hook (set on attach).
        self.deliver: Optional[Callable[[Any], None]] = None


class IBFabric:
    """Crossbar switch + attached ports, addressed by LID."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.ports: dict[int, IBPort] = {}

    def attach(self, deliver: Callable[[Any], None]) -> IBPort:
        """Plug an HCA in; returns its port (LID assigned sequentially)."""
        lid = len(self.ports)
        port = IBPort(self.sim, lid)
        port.deliver = deliver
        self.ports[lid] = port
        return port

    def send(self, src_lid: int, dst_lid: int, nbytes: int, payload: Any) -> None:
        """Move *nbytes* from src port to dst port.

        Serializes on the source's up wire and the destination's down wire
        (the crossbar itself is non-blocking); the payload is handed to the
        destination HCA's delivery hook on arrival, the one completion
        signal a sender sees.
        """
        if src_lid not in self.ports or dst_lid not in self.ports:
            raise KeyError(f"ib: unknown LID {src_lid}->{dst_lid}")
        self.sim.process(
            self._send_proc(src_lid, dst_lid, nbytes, payload),
            name=f"ib.{src_lid}->{dst_lid}",
        )

    def _send_proc(self, src_lid, dst_lid, nbytes, payload):
        src = self.ports[src_lid]
        dst = self.ports[dst_lid]
        if src_lid != dst_lid:
            yield src.up.transfer(nbytes)
            yield self.sim.timeout(IB_SWITCH_LATENCY)
            yield dst.down.transfer(nbytes)
        else:
            # HCA-internal loop-back.
            yield src.up.transfer(nbytes)
        if dst.deliver is not None:
            dst.deliver(payload)
