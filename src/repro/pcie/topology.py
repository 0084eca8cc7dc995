"""Standard platform topologies used by the paper's test systems.

* :func:`plx_platform` — the "ideal platform" (Table I footnote): the GPU
  and the NIC hang off the same PLX PCIe switch, one hop apart.
* :func:`westmere_platform` — GPU and NIC on different root-complex ports
  (the common Cluster I arrangement): traffic crosses the chipset.

Each builder returns a :class:`Platform` handle exposing the fabric, the
host memory device, and named attachment points for GPUs and NICs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim import Simulator
from .device import HostMemory, PCIeDevice
from .fabric import FabricNode, PCIeFabric
from .tlp import LinkParams

__all__ = ["Platform", "plx_platform", "westmere_platform"]


@dataclass
class Platform:
    """A built host platform: fabric + host memory + attachment points."""

    sim: Simulator
    fabric: PCIeFabric
    host_memory: HostMemory
    # Where to plug accelerators / NICs (builder-specific semantics).
    slots: dict[str, FabricNode] = field(default_factory=dict)

    def attach(
        self,
        device: PCIeDevice,
        slot: str,
        link: LinkParams = LinkParams(gen=2, lanes=8),
    ) -> FabricNode:
        """Plug *device* into the named slot.

        The hop latency follows the slot's silicon: a PLX switch forwards
        in ~110 ns, a root-complex port in ~150 ns — the platform
        difference behind the paper's "ideal platform" footnote.
        """
        try:
            parent = self.slots[slot]
        except KeyError:
            raise KeyError(
                f"unknown slot {slot!r}; available: {sorted(self.slots)}"
            ) from None
        latency = _PLX_LATENCY if parent.kind == "switch" else _RC_PORT_LATENCY
        return self.fabric.add_endpoint(device, parent, link, latency)


# Root-complex forwarding is slower than a PLX switch; the memory
# controller path (DRAM attach) is slower still.
_RC_LATENCY = 300.0  # root complex <-> memory controller
_RC_PORT_LATENCY = 150.0  # root-complex PCIe port forwarding
_PLX_LATENCY = 110.0


def plx_platform(sim: Simulator, name: str = "plx") -> Platform:
    """GPU and NIC behind one PLX switch (best case for peer-to-peer)."""
    fab = PCIeFabric(sim)
    root = fab.add_root(f"{name}.rc")
    mem = HostMemory(sim, name=f"{name}.dram")
    fab.add_endpoint(mem, root, LinkParams(gen=2, lanes=16), latency=_RC_LATENCY)
    plx = fab.add_switch(
        f"{name}.plx", root, LinkParams(gen=2, lanes=16), latency=_PLX_LATENCY
    )
    return Platform(
        sim,
        fab,
        mem,
        slots={"gpu": plx, "nic": plx, "root": root},
    )


def westmere_platform(sim: Simulator, name: str = "westmere") -> Platform:
    """GPU and NIC on separate root-complex ports (Cluster I nodes).

    Peer traffic crosses the chipset: two hops with root-complex latency.
    """
    fab = PCIeFabric(sim)
    root = fab.add_root(f"{name}.rc")
    mem = HostMemory(sim, name=f"{name}.dram")
    fab.add_endpoint(mem, root, LinkParams(gen=2, lanes=16), latency=_RC_LATENCY)
    return Platform(sim, fab, mem, slots={"gpu": root, "nic": root, "root": root})
