"""The APEnet+ router: 8-port switch with dimension-ordered routing.

"The Router implements a dimension-ordered static routing algorithm and
directly controls an 8-ports switch, with 6 ports connecting the external
torus link blocks (X+, X−, Y+, Y−, Z+, Z−) and 2 local packet
injection/extraction ports" (§III.B).

One forwarding process per input source (each torus port plus the local
injection FIFO).  Every hop comes from a
:class:`~repro.net.topology.RouteTable`: the one all routers of the
cluster share, or the recovery manager's once one is attached.  On a
healthy torus the table corrects X, then Y, then Z.  Packets that cross a
ring's wrap-around edge move to VC1 (see :mod:`repro.apenet.torus`), and the
VC resets when the packet turns into a new dimension.

``flush_tx`` mode discards locally injected packets at the switch —
"effectively simulating a zero-latency infinitely fast switch" (Fig 4's
measurement mode).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..net.packet import ApePacket
from ..net.topology import Coord, RouteTable
from ..sim import PacketFifo, Simulator
from .config import ApenetConfig
from .torus import TorusLink, TorusPort

__all__ = ["Router"]

_PORTS = [(dim, direction) for dim in range(3) for direction in (1, -1)]


class Router:
    """Per-card switch fabric."""

    def __init__(
        self,
        sim: Simulator,
        coord: Coord,
        routes: RouteTable,
        config: ApenetConfig,
        deliver_local: Callable[[ApePacket], "object"],
        name: str = "router",
    ):
        """``deliver_local(pkt)`` must return an Event (RX admission).

        *routes* is the torus's route table, one shared by every router
        of the cluster.
        """
        self.sim = sim
        self.coord = coord
        self.routes = routes
        self.config = config
        self.name = name
        self.deliver_local = deliver_local
        # Input ports for the six torus directions.
        self.ports: dict[tuple[int, int], TorusPort] = {
            pd: TorusPort(sim, config.port_fifo_bytes, f"{name}.in{pd}")
            for pd in _PORTS
        }
        # Output links, wired by the cluster builder.
        self.links: dict[tuple[int, int], TorusLink] = {}
        # Local injection FIFO — the card's TX FIFO drains into the switch.
        self.inject_fifo = PacketFifo(sim, config.tx_fifo_bytes, f"{name}.txfifo")
        # Recovery manager (attached by the cluster builder): when present,
        # forwarding asks it instead of *routes*, so hops follow its
        # current dead-link-aware table, and a missing route becomes a
        # structured unreachable verdict rather than a crash.
        self.recovery = None
        from .torus import VC_COUNT

        for pd in _PORTS:
            for vc in range(VC_COUNT):
                sim.process(self._port_loop(pd, vc), name=f"{name}.fwd{pd}v{vc}")
        sim.process(self._inject_loop(), name=f"{name}.inject")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def wire(self, dim: int, direction: int, link: TorusLink) -> None:
        """Attach the outgoing link for (dim, direction)."""
        self.links[(dim, direction)] = link

    def port(self, dim: int, direction: int) -> TorusPort:
        """The input port for packets arriving from (dim, direction)."""
        return self.ports[(dim, direction)]

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------

    def inject(self, packet: ApePacket):
        """Event: packet accepted into the TX FIFO (backpressure point)."""
        return self.inject_fifo.put(packet)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _next_hop(self, pkt: ApePacket) -> Optional[tuple[int, int]]:
        if self.recovery is not None:
            # None here means partitioned.
            return self.recovery.next_hop(self.coord, pkt.dst_coord)
        return self.routes.next_hop(self.coord, pkt.dst_coord)

    def _vc_after_hop(self, vc: int, hop: tuple[int, int], prev_dim: Optional[int]) -> int:
        dim, direction = hop
        if prev_dim is not None and dim != prev_dim:
            vc = 0  # new dimension, fresh ring
        extent = self.routes.shape.dims[dim]
        at = self.coord[dim]
        crosses_dateline = (direction == 1 and at == extent - 1) or (
            direction == -1 and at == 0
        )
        return 1 if crosses_dateline else vc

    def _inject_loop(self):
        while True:
            pkt = yield self.inject_fifo.get()
            if self.config.flush_tx:
                continue
            yield from self._forward(pkt, vc=0, prev_dim=None, release=None)

    def _port_loop(self, pd: tuple[int, int], vc: int):
        port = self.ports[pd]
        # One independent forwarding process per (input port, VC): the
        # incoming dimension is pd's dim; the packet continues in that ring
        # or turns.
        while True:
            pkt = yield port.queues[vc].get()

            def _release(p=port, v=vc, n=pkt.size):
                p.release(v, n)

            yield from self._forward(pkt, vc=vc, prev_dim=pd[0], release=_release)

    def _forward(self, pkt, vc, prev_dim, release):
        yield self.sim.timeout(self.config.router_latency)
        if pkt.dst_coord == self.coord:
            # Extraction port: admission into the RX engine may backpressure.
            admission = self.deliver_local(pkt)
            if admission is not None:
                yield admission
            if release:
                release()
            return
        hop = self._next_hop(pkt)
        if hop is None or hop not in self.links:
            if self.recovery is not None and hop is None:
                # Partitioned: every surviving route to the destination is
                # severed.  Discard with a structured verdict instead of
                # crashing the run; the transaction layer reports it.
                self.recovery.record_unreachable(self.name, pkt)
                if release:
                    release()
                return
            raise RuntimeError(
                f"{self.name}: no link for hop {hop} toward {pkt.dst_coord}"
            )
        next_vc = self._vc_after_hop(vc, hop, prev_dim)
        yield from self.links[hop].send(pkt, next_vc)
        if release:
            release()
