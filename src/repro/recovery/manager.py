"""The per-cluster health monitor / failure detector and detour router.

One :class:`RecoveryManager` serves a cluster (wired by
:func:`~repro.net.cluster.build_apenet_cluster` when a ``recovery``
policy is passed).  It consumes the structured
:class:`~repro.faults.LinkFailure` escalations that link-level
retransmission produces when a retry budget is exhausted, marks the
torus link dead, and replaces its :class:`~repro.net.topology.RouteTable`
with one that detours around every dead link.  Because all routers
consult the same manager (the simulated analogue of the global
fault-awareness protocol of arXiv:1311.1741), they take hops from one
table and per-hop detour forwarding stays loop-free.

The manager also owns the P2P -> host-staging degradation verdict: when
a node's GPU-side fault sites (Nios II stall count, PCIe TLP replay
storms) cross the policy thresholds, its endpoint stops posting P2P
descriptors and stages through host bounce buffers instead — sticky per
node, recorded in :class:`~repro.sim.stats.RecoveryStats`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..net.topology import Coord, RouteTable, TorusShape
from ..sim import Simulator
from ..sim.stats import FaultStats, RecoveryStats
from .policy import RecoveryPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..apenet.torus import TorusLink
    from ..faults import LinkFailure

__all__ = ["RecoveryManager"]


class RecoveryManager:
    """Cluster-wide failure detector, detour router, degradation oracle."""

    def __init__(
        self,
        sim: Simulator,
        shape: TorusShape,
        policy: Optional[RecoveryPolicy] = None,
        fault_stats: Optional[FaultStats] = None,
    ):
        self.sim = sim
        self.shape = shape
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.stats = RecoveryStats()
        # Per-site fault counters feeding the degradation thresholds;
        # attached by the cluster builder when an injector is present.
        self.fault_stats = fault_stats
        # Every router's forwarding oracle; its ``dead`` set holds the
        # dead directed links, keyed (src_coord, dim, direction).
        self.routes = RouteTable(shape)
        self._degraded: set[str] = set()

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------

    def is_dead(self, src_coord: Coord, dim: int, direction: int) -> bool:
        """True if the directed link has been marked dead."""
        return (src_coord, dim, direction) in self.routes.dead

    def mark_dead(
        self,
        src_coord: Coord,
        dim: int,
        direction: int,
        site: str = "",
        elapsed_ns: Optional[float] = None,
        kind: str = "",
    ) -> None:
        """Mark a directed link dead and replace the route table."""
        key = (src_coord, dim, direction)
        if key in self.routes.dead:
            return
        self.routes = RouteTable(self.shape, self.routes.dead | {key})
        info = dict(
            site=site,
            src_coord=src_coord,
            dim=dim,
            direction=direction,
            time=self.sim.now,
            kind=kind,
        )
        if elapsed_ns is not None:
            info["elapsed_ns"] = elapsed_ns
        self.stats.record_link_death(**info)
        obs = self.sim._obs
        if obs is not None:
            obs.instant(
                "recovery",
                "link_dead",
                site=site,
                dim=dim,
                direction=direction,
                kind=kind,
            )

    def link_failed(self, link: "TorusLink", failure: "LinkFailure") -> bool:
        """Absorb one retry-budget escalation from a torus link.

        Returns True when the failure was consumed (link located on the
        torus, now marked dead — the sender drops the packet and the
        end-to-end transaction layer replays it over the detour).  An
        unlocated link keeps the legacy contract: the caller re-raises.
        """
        if link.src_coord is None or link.dim is None:
            return False
        self.mark_dead(
            link.src_coord,
            link.dim,
            link.direction,
            site=link.name,
            elapsed_ns=failure.elapsed_ns,
            kind=failure.kind,
        )
        return True

    # ------------------------------------------------------------------
    # Detour routing
    # ------------------------------------------------------------------

    def next_hop(self, cur: Coord, dst: Coord) -> Optional[tuple[int, int]]:
        """Forwarding decision for one packet (counts rerouted hops).

        A hop counts as rerouted when it differs from the static
        dimension-ordered first hop.  None means unreachable: every
        surviving path to *dst* is severed (callers must already have
        handled the arrived case).
        """
        hop = self.routes.next_hop(cur, dst)
        if hop is not None and self.routes.dead and hop != self.shape.route(cur, dst)[0]:
            self.stats.packets_rerouted += 1
        return hop

    def reachable(self, src: Coord, dst: Coord) -> bool:
        """True when a surviving route src -> dst exists (no counting)."""
        if self.shape.wrap(src) == self.shape.wrap(dst):
            return True
        return self.routes.next_hop(src, dst) is not None

    def record_unreachable(self, site: str, pkt) -> None:
        """Book one packet discarded for lack of any surviving route."""
        self.stats.packets_unreachable += 1
        obs = self.sim._obs
        if obs is not None:
            obs.instant(
                "recovery",
                "unreachable",
                site=site,
                dst=str(pkt.dst_coord),
                nbytes=pkt.nbytes,
            )

    # ------------------------------------------------------------------
    # P2P -> host-staging degradation
    # ------------------------------------------------------------------

    def should_degrade(self, card) -> bool:
        """Sticky per-node verdict: stage through host memory from now on?

        Consults the per-site fault counters: the node's own Nios II
        stall count and the TLP replay storms on any PCIe channel of the
        node (BAR1 writes ride those channels).  Crossing either policy
        threshold flips the node permanently — a sick NIC does not heal
        mid-run.
        """
        name = card.name
        if name in self._degraded:
            return True
        fs = self.fault_stats
        if fs is None:
            return False
        nios_site = f"{name}.nios"
        nios_stalls = fs.nios_stalls_by_site.get(nios_site, 0)
        node_prefix = name.split(".")[0] + "."
        tlp_replays = sum(
            count
            for site, count in fs.tlp_replays_by_site.items()
            if site.startswith(node_prefix)
        )
        policy = self.policy
        if (
            nios_stalls < policy.degrade_nios_stalls
            and tlp_replays < policy.degrade_tlp_replays
        ):
            return False
        self._degraded.add(name)
        self.stats.record_degradation(
            card=name,
            time=self.sim.now,
            nios_stalls=nios_stalls,
            tlp_replays=tlp_replays,
        )
        obs = self.sim._obs
        if obs is not None:
            obs.instant(
                "recovery",
                "degrade_to_staging",
                card=name,
                nios_stalls=nios_stalls,
                tlp_replays=tlp_replays,
            )
        return True
