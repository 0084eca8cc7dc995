"""Torus links: credit-based, virtual-channelled point-to-point channels.

Each directed link couples an output of one card's router to an input port
of the neighbour.  Transmission is credit-based virtual cut-through: the
sender reserves space in the receiver's port buffer *before* occupying the
wire, so congestion back-pressures cleanly (this is what makes the all-to-all
BFS traffic congest the 4×2 torus, Table IV).

Two virtual channels share each physical link.  Packets normally travel on
VC0 and switch to VC1 after crossing a ring's dateline (the wrap-around
edge), the classic deadlock-free scheme for wormhole/VCT rings — the real
card has equivalent machinery in its link blocks.

With a :class:`~repro.faults.FaultInjector` attached (see
:func:`~repro.net.cluster.build_apenet_cluster`'s ``faults`` argument) each
link additionally runs the error-management layer of the follow-up APEnet+
papers: the receiver CRC-checks every frame and NAKs corrupted ones, the
sender keeps the packet in a replay buffer and retransmits — after the NAK
round trip for detected corruption, after an exponentially backed-off
replay timer for silently dropped frames — until a bounded retry budget is
exhausted, at which point a structured
:class:`~repro.faults.LinkFailure` escalates.  Without an injector the
send path is byte-for-byte the fault-free one: zero extra events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..net.packet import ApePacket
from ..sim import ByteFifo, Channel, Simulator, Store

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..faults import FaultInjector

__all__ = ["TorusPort", "TorusLink", "VC_COUNT"]

VC_COUNT = 2


class TorusPort:
    """Input side of a directed link: per-VC credit pools + packet queues.

    Each virtual channel has its OWN queue and is forwarded by its own
    router process: a blocked VC0 packet must never stall VC1 traffic
    behind it, or the dateline scheme's deadlock-freedom argument breaks
    (cross-VC head-of-line blocking closes the very cycles VC1 exists to
    cut).
    """

    def __init__(self, sim: Simulator, capacity_per_vc: int, name: str = "port"):
        self.sim = sim
        self.name = name
        self.credits = [
            ByteFifo(sim, capacity_per_vc, f"{name}.vc{v}") for v in range(VC_COUNT)
        ]
        self.queues = [Store(sim, name=f"{name}.q{v}") for v in range(VC_COUNT)]
        self.packets_in = 0

    def reserve(self, vc: int, nbytes: int):
        """Event firing once *nbytes* of VC credit is held."""
        return self.credits[vc].put(nbytes)

    def deposit(self, packet: ApePacket, vc: int) -> None:
        """Hand an arrived packet to the router's input queue for its VC."""
        self.packets_in += 1
        self.queues[vc].put(packet)

    def release(self, vc: int, nbytes: int) -> None:
        """Return credit after the packet leaves the port buffer."""
        # get() on a ByteFifo used as a credit pool never blocks here because
        # release always follows a successful reserve of the same size.
        self.credits[vc].get(nbytes)


class TorusLink:
    """Directed physical link with a shared wire and per-VC credits."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float,
        dst_port: TorusPort,
        name: str = "link",
        src_coord=None,
        dst_coord=None,
        dim: Optional[int] = None,
        direction: Optional[int] = None,
    ):
        self.sim = sim
        self.name = name
        # The channel models wire serialization only; propagation is a
        # separate pipelined delay so the sender can start the next packet
        # as soon as the tail leaves the output (cut-through behaviour).
        self.channel = Channel(sim, bandwidth, 0.0, name)
        self.latency = latency
        self.dst_port = dst_port
        # Torus location of this directed channel (sender side); lets a
        # LinkFailure name the topology hop and the recovery layer mark
        # the right edge dead.  None for links wired outside a torus.
        self.src_coord = src_coord
        self.dst_coord = dst_coord
        self.dim = dim
        self.direction = direction
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_lost = 0  # eaten by a dead link / absorbed escalation
        # Fault-injection site: attached by the cluster builder; None keeps
        # the send path identical to the fault-free simulator.
        self.faults: Optional["FaultInjector"] = None
        # Recovery manager: attached by the cluster builder when systemic
        # fault awareness is enabled; absorbs retry-budget escalations.
        self.recovery = None

    def send(self, packet: ApePacket, vc: int):
        """Generator: credit-reserve, serialize, deliver.

        Drive with ``yield from link.send(pkt, vc)`` from a router process.
        The generator returns once the packet's tail has left the wire;
        delivery at the far port happens ``latency`` later, pipelined.
        """
        obs = self.sim._obs
        span = None
        if obs is not None:
            # Covers credit wait + serialization (the VCT hop of §III.A);
            # propagation is pipelined and excluded, like the model itself.
            span = obs.span("apenet", "link:" + self.name, nbytes=packet.size, vc=vc)
        if self.faults is not None:
            yield from self._send_reliable(packet, vc)
            if span is not None:
                span.end()
            return
        yield self.dst_port.reserve(vc, packet.size)
        yield self.channel.transfer(packet.size)
        if span is not None:
            span.end()
        self.packets_sent += 1
        self.bytes_sent += packet.size
        arrive = self.sim.timeout(self.latency)
        arrive.callbacks.append(
            lambda _ev, p=packet, v=vc: self.dst_port.deposit(p, v)
        )

    def _send_reliable(self, packet: ApePacket, vc: int):
        """The ACK/NAK retransmission path (fault injector attached).

        A clean transmission costs exactly what the fault-free path costs:
        ACK bookkeeping rides the reverse link for free (as in the real
        link blocks, where the replay buffer drains transparently).  Only
        a fault stalls the sender: a CRC-detected corruption costs the NAK
        round trip (2x propagation), a silent drop costs the replay timer
        with exponential backoff, and either way the frame re-occupies the
        wire.  The port-buffer credit reserved up front spans all attempts
        — the receiver's slot is held for the packet until it lands or the
        link gives up.
        """
        from ..faults import LinkFailure

        inj = self.faults
        plan = inj.plan
        stats = inj.stats
        mgr = self.recovery
        if mgr is not None and self.src_coord is not None:
            if mgr.is_dead(self.src_coord, self.dim, self.direction):
                # Link already declared dead: eat the packet without even
                # reserving a credit — nothing will ever land, and the
                # end-to-end transaction layer replays over the detour.
                self.packets_lost += 1
                return
        yield self.dst_port.reserve(vc, packet.size)
        t0 = self.sim.now
        attempts = 0
        while True:
            yield self.channel.transfer(packet.size)
            stats.wire_bytes += packet.size
            if inj.link_killed(self.name, self.sim.now):
                # Hard kill: the wire eats every frame from the kill time
                # on.  No random draw — the schedule is the oracle, so the
                # site's stream is unperturbed for pre-kill traffic.
                fate = "dead"
            else:
                fate = inj.link_packet_fate(self.name, packet.size)
            if fate == "ok":
                self.packets_sent += 1
                self.bytes_sent += packet.size
                stats.payload_bytes += packet.nbytes
                if attempts:
                    stats.recovery_latency.add(self.sim.now - t0)
                arrive = self.sim.timeout(self.latency)
                arrive.callbacks.append(
                    lambda _ev, p=packet, v=vc: self.dst_port.deposit(p, v)
                )
                return
            attempts += 1
            stats.retransmits += 1
            if fate == "corrupt":
                stats.crc_errors += 1
            else:
                stats.packets_dropped += 1
            if attempts > plan.max_retries:
                stats.record_link_failure(
                    site=self.name,
                    attempts=attempts,
                    time=self.sim.now,
                    kind=fate,
                    src_coord=self.src_coord,
                    dst_coord=self.dst_coord,
                )
                failure = LinkFailure(
                    self.name,
                    attempts,
                    self.sim.now - t0,
                    kind=fate,
                    src_coord=self.src_coord,
                    dst_coord=self.dst_coord,
                    dim=self.dim,
                    direction=self.direction,
                )
                if mgr is not None and mgr.link_failed(self, failure):
                    # Absorbed: the health monitor marked the link dead and
                    # the routers detour from now on.  Return the credit we
                    # held (nothing will land) and drop the frame; the
                    # reliable-PUT layer replays it end to end.
                    self.dst_port.release(vc, packet.size)
                    self.packets_lost += 1
                    return
                raise failure
            if fate == "corrupt":
                # Receiver CRC-checks the landed frame and NAKs: one
                # propagation for the frame, one for the NAK.
                yield self.sim.timeout(2 * self.latency)
            else:
                # Nothing came back: the replay timer fires, backed off
                # exponentially per consecutive loss.
                yield self.sim.timeout(
                    plan.ack_timeout * plan.backoff ** (attempts - 1)
                )

    def utilization(self) -> float:
        """Wire busy fraction."""
        return self.channel.utilization()
