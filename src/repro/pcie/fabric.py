"""The PCIe fabric: topology, routing, and split-transaction engines.

The fabric is a tree (root complex at the top, switches below, endpoints at
the leaves — a dual-socket platform is modelled as a virtual top node whose
children are the two root complexes joined by QPI-latency links).  Each edge
is a full-duplex pair of :class:`~repro.sim.channel.Channel` objects sized
from :class:`~repro.pcie.tlp.LinkParams`.

Transactions:

* :meth:`PCIeFabric.write` — posted write.  Payload is fragmented into
  *quanta* (default 4 KiB of payload, i.e. a batch of MPS-sized TLPs whose
  summed wire overhead is accounted exactly); quanta pipeline hop by hop.
  The returned event fires when the last quantum has been absorbed by the
  target (including the target's sink rate limiter).
* :meth:`PCIeFabric.read` — one split transaction (request ≤ MRRS): a
  header-only MRd travels to the target, waits the target's first-access
  latency and rate limiter, and MPS-chunked completions travel back.  The
  event fires when the last completion lands at the initiator.
* :meth:`PCIeFabric.read_pipelined` — a windowed initiator issuing many
  MRRS-sized requests with a bounded number outstanding (how real DMA
  engines achieve bandwidth despite the read round-trip).

Timing only: reads do not move Python data (the simulation gives callers
global visibility of memory objects); writes may carry an opaque payload
delivered to the target's ``on_write`` hook.

Each transaction runs as a small callback chain (:class:`_Chain`), not a
generator :class:`~repro.sim.Process`: a Process per ≤MRRS read was most
of the simulator's host time.  A chain waits on the same events, in the
same order, as the generator would, so timing and event order do not
change (DESIGN.md §11).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from ..sim import Channel, Event, SimulationError, Simulator
from .device import PCIeDevice
from .tlp import DEFAULT_MPS, DEFAULT_MRRS, LinkParams, TlpKind, fragment, tlp_overhead

__all__ = ["PCIeFabric", "FabricNode", "FabricLink", "TransferRecord"]


@dataclass
class TransferRecord:
    """One observed link crossing (fed to bus-analyzer taps)."""

    time: float
    kind: TlpKind
    addr: int
    payload_bytes: int
    wire_bytes: int
    direction: str  # "up" (toward root) or "down"
    requester: str


class FabricLink:
    """Full-duplex edge between a node and its parent."""

    def __init__(
        self,
        sim: Simulator,
        child: "FabricNode",
        parent: "FabricNode",
        params: LinkParams,
        latency: float,
    ):
        bw = params.effective_bandwidth
        self.params = params
        self.child = child
        self.parent = parent
        # "up" carries traffic toward the root, "down" away from it.
        self.up = Channel(sim, bw, latency, name=f"{child.name}->{parent.name}")
        self.down = Channel(sim, bw, latency, name=f"{parent.name}->{child.name}")
        self.taps: list[Callable[[TransferRecord], None]] = []

    def channel(self, direction: str) -> Channel:
        """The channel for *direction* ('up' or 'down')."""
        return self.up if direction == "up" else self.down

    def notify(self, rec: TransferRecord) -> None:
        """Feed *rec* to any attached analyzer taps."""
        for tap in self.taps:
            tap(rec)


class FabricNode:
    """A position in the tree: root complex, switch, or endpoint slot."""

    def __init__(self, name: str, kind: str, parent: Optional["FabricNode"]):
        self.name = name
        self.kind = kind  # "root" | "switch" | "endpoint"
        self.parent = parent
        self.uplink: Optional[FabricLink] = None
        self.device: Optional[PCIeDevice] = None
        self.depth = 0 if parent is None else parent.depth + 1

    def ancestors(self) -> list["FabricNode"]:
        """This node and all its ancestors, leaf-first."""
        chain = [self]
        node = self
        while node.parent is not None:
            node = node.parent
            chain.append(node)
        return chain


class PCIeFabric:
    """A tree of PCIe links with address-routed split transactions."""

    def __init__(
        self,
        sim: Simulator,
        mps: int = DEFAULT_MPS,
        mrrs: int = DEFAULT_MRRS,
        write_quantum: int = 4096,
    ):
        self.sim = sim
        self.mps = mps
        self.mrrs = mrrs
        self.write_quantum = write_quantum
        self.nodes: dict[str, FabricNode] = {}
        self.root: Optional[FabricNode] = None
        # Address index: sorted list of (base, limit, device).
        self._windows: list[tuple[int, int, PCIeDevice]] = []
        # Fault-injection site (repro.faults): when set, every hop transfer
        # consults it for LCRC-triggered TLP replays.  None (the default)
        # leaves the transaction paths bit-identical to the fault-free
        # fabric — the hook is a single predictable branch per hop.
        self.faults = None
        # Route memo: (src, dst) node pair -> hops.  Cleared on attach.
        self._routes: dict[tuple[FabricNode, FabricNode], tuple] = {}

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def add_root(self, name: str = "root-complex") -> FabricNode:
        """Create the tree root (exactly one per fabric)."""
        if self.root is not None:
            raise SimulationError("fabric already has a root")
        node = FabricNode(name, "root", None)
        self.root = node
        self.nodes[name] = node
        return node

    def _attach(
        self,
        name: str,
        kind: str,
        parent: FabricNode,
        link: LinkParams,
        latency: float,
    ) -> FabricNode:
        if name in self.nodes:
            raise SimulationError(f"duplicate fabric node name {name!r}")
        node = FabricNode(name, kind, parent)
        node.uplink = FabricLink(self.sim, node, parent, link, latency)
        self.nodes[name] = node
        self._routes.clear()
        return node

    def add_switch(
        self,
        name: str,
        parent: FabricNode,
        link: LinkParams = LinkParams(gen=2, lanes=16),
        latency: float = 150.0,
    ) -> FabricNode:
        """Attach a switch (e.g. a PLX) below *parent*."""
        return self._attach(name, "switch", parent, link, latency)

    def add_endpoint(
        self,
        device: PCIeDevice,
        parent: FabricNode,
        link: LinkParams = LinkParams(gen=2, lanes=8),
        latency: float = 150.0,
    ) -> FabricNode:
        """Attach *device* below *parent* and index its address windows."""
        node = self._attach(device.name, "endpoint", parent, link, latency)
        node.device = device
        device.fabric = self
        device.node = node
        for win in device.windows:
            self.index_window(device, win)
        return node

    def index_window(self, device: PCIeDevice, win) -> None:
        """Register an address window for routing."""
        for base, limit, dev in self._windows:
            if not (win.limit <= base or limit <= win.base):
                raise SimulationError(
                    f"window clash: {device.name} [{win.base:#x},{win.limit:#x}) "
                    f"overlaps {dev.name}"
                )
        self._windows.append((win.base, win.limit, device))
        self._windows.sort()

    def resolve(self, addr: int) -> PCIeDevice:
        """The device owning *addr*."""
        for base, limit, dev in self._windows:
            if base <= addr < limit:
                return dev
        raise SimulationError(f"address 0x{addr:x} does not route anywhere")

    def link_of(self, name: str) -> FabricLink:
        """The uplink of node *name* (for analyzer attachment)."""
        node = self.nodes[name]
        if node.uplink is None:
            raise SimulationError(f"{name} is the root; it has no uplink")
        return node.uplink

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def path(
        self, src: FabricNode, dst: FabricNode
    ) -> list[tuple[FabricLink, str]]:
        """The ordered (link, direction) hops from *src* to *dst*."""
        return list(self._route(src, dst))

    def _route(self, src: FabricNode, dst: FabricNode) -> tuple:
        """:meth:`path` as a tuple, memoised per node pair until the next attach."""
        key = (src, dst)
        hops = self._routes.get(key)
        if hops is None:
            hops = self._routes[key] = self._walk(src, dst)
        return hops

    def _walk(self, src: FabricNode, dst: FabricNode) -> tuple:
        if src is dst:
            return ()
        src_chain = src.ancestors()
        dst_chain = dst.ancestors()
        # Keyed by the node itself (identity hash): same membership semantics
        # as id()-keys but with no raw-address handling (DET001).
        dst_index = {n: i for i, n in enumerate(dst_chain)}
        hops: list[tuple[FabricLink, str]] = []
        # Climb from src until we hit a node on dst's ancestor chain.
        meet_idx = None
        for node in src_chain:
            if node in dst_index:
                meet_idx = dst_index[node]
                break
            hops.append((node.uplink, "up"))
        if meet_idx is None:
            raise SimulationError(f"no path {src.name} -> {dst.name}")
        # Descend from the meeting point to dst.
        down = [(n.uplink, "down") for n in dst_chain[:meet_idx]]
        hops.extend(reversed(down))
        return tuple(hops)

    def _device_node(self, device: PCIeDevice) -> FabricNode:
        if device.node is None:
            raise SimulationError(f"{device.name} is not attached to the fabric")
        return device.node

    def _cross(
        self,
        link: FabricLink,
        direction: str,
        kind: TlpKind,
        addr: int,
        payload: int,
        wire: int,
        requester: str,
    ) -> Event:
        """Send one hop's TLPs; the event fires when they reach the far end.

        Taps see the record first; fault injection then inflates the wire
        bytes by any LCRC-triggered replays (and may raise LinkFailure).
        """
        if link.taps:
            link.notify(
                TransferRecord(self.sim.now, kind, addr, payload, wire, direction, requester)
            )
        channel = link.channel(direction)
        if self.faults is not None:
            wire += self.faults.tlp_extra_wire(channel.name, wire)
        return channel.transfer(wire)

    # ------------------------------------------------------------------
    # Posted writes
    # ------------------------------------------------------------------

    def write(
        self,
        initiator: PCIeDevice,
        addr: int,
        nbytes: int,
        payload: Any = None,
        quantum: Optional[int] = None,
    ) -> Event:
        """Posted write of *nbytes* to *addr*; fires on target absorption."""
        if nbytes <= 0:
            raise SimulationError("write needs a positive size")
        target = self.resolve(addr)
        behavior = target.describe_write(addr)
        hops = self._route(self._device_node(initiator), self._device_node(target))
        q = max(quantum or self.write_quantum, self.mps)
        if q & (q - 1):
            raise SimulationError(f"write quantum {q} must be a power of two")
        done = Event(self.sim)
        obs = self.sim._obs
        if obs is not None:
            span = obs.span("pcie", "write", initiator=initiator.name, nbytes=nbytes)
            done.callbacks.append(span.end_event)
        _Write(self, initiator.name, addr, nbytes, payload, behavior, hops, q, done)
        return done

    def _wire_bytes_for_write(self, addr: int, nbytes: int) -> int:
        return nbytes + _tlp_count(addr, nbytes, self.mps) * _MWR_OVERHEAD

    # ------------------------------------------------------------------
    # Split-transaction reads
    # ------------------------------------------------------------------

    def read(self, initiator: PCIeDevice, addr: int, nbytes: int) -> Event:
        """One split-transaction read (≤ MRRS); fires when data is back."""
        if nbytes <= 0:
            raise SimulationError("read needs a positive size")
        if nbytes > self.mrrs:
            raise SimulationError(
                f"read of {nbytes} exceeds MRRS {self.mrrs}; "
                "use read_pipelined for bulk transfers"
            )
        target = self.resolve(addr)
        behavior = target.describe_read(addr)
        src, dst = self._device_node(initiator), self._device_node(target)
        fwd, rev = self._route(src, dst), self._route(dst, src)
        done = Event(self.sim)
        obs = self.sim._obs
        if obs is not None:
            span = obs.span("pcie", "read", initiator=initiator.name, nbytes=nbytes)
            done.callbacks.append(span.end_event)
        _Read(self, initiator.name, addr, nbytes, behavior, fwd, rev, done)
        return done

    def read_pipelined(
        self,
        initiator: PCIeDevice,
        addr: int,
        nbytes: int,
        outstanding: int = 4,
        request_size: Optional[int] = None,
        on_data: Optional[Callable[[int, int], None]] = None,
    ) -> Event:
        """Windowed bulk read: many MRRS-sized requests, bounded in flight.

        ``on_data(chunk_addr, chunk_size)`` runs as each chunk's completions
        arrive (used by DMA engines to forward data onward).  The returned
        event fires when the final chunk lands.
        """
        if nbytes <= 0:
            raise SimulationError("read_pipelined needs a positive size")
        if outstanding < 1:
            raise SimulationError("need at least one outstanding request")
        rs = request_size or self.mrrs
        if rs < 1 or rs & (rs - 1):
            raise SimulationError(f"request_size {rs} must be a positive power of two")
        if rs > self.mrrs:
            raise SimulationError(f"request_size {rs} exceeds MRRS {self.mrrs}")
        done = Event(self.sim)
        obs = self.sim._obs
        if obs is not None:
            span = obs.span(
                "pcie",
                "read_pipelined",
                initiator=initiator.name,
                nbytes=nbytes,
                outstanding=outstanding,
            )
            done.callbacks.append(span.end_event)
        _ReadPipelined(self, initiator, addr, nbytes, outstanding, rs, on_data, done)
        return done


# ----------------------------------------------------------------------
# Transactions as callback chains
# ----------------------------------------------------------------------

_MWR = TlpKind.MEM_WRITE
_MRD = TlpKind.MEM_READ
_CPLD = TlpKind.COMPLETION
_MWR_OVERHEAD = tlp_overhead(_MWR)
_MRD_WIRE = tlp_overhead(_MRD)  # a read request is header only
_CPLD_OVERHEAD = tlp_overhead(_CPLD)


def _tlp_count(addr: int, nbytes: int, boundary: int) -> int:
    """TLPs in [addr, addr + nbytes): the *boundary*-aligned blocks it touches."""
    return (addr + nbytes - 1) // boundary - addr // boundary + 1


def _reraise(event: Event) -> None:
    raise event._value


class _Chain:
    """A fabric transaction driven by event callbacks instead of a Process.

    ``step`` holds the stage to run next, as a plain function: a bound
    method stored on the chain would be a reference cycle, left for the
    garbage collector.  A stage does what a generator
    would do up to its next ``yield`` and returns that event, or None when
    the transaction is over; the chain then waits on the event by
    appending itself to its callbacks.  :meth:`_start` schedules the first
    stage on a zero-delay wake event, in the slot a Process's init event
    takes, so every transfer, limiter grant, fault draw and delivery keeps
    the (time, seq) order a generator gave it.
    """

    __slots__ = ("fabric", "step")

    def _start(self) -> None:
        self.fabric.sim._wake_event(True, None).callbacks.append(self._resume)

    def _resume(self, _event: Event) -> None:
        try:
            event = self.step(self)
        except BaseException as exc:  # repro: noqa-SIM001 — crash boundary:
            # fail a zero-delay event at this instant, as a crashed Process
            # did; the run loop re-raises the exception when it pops.
            self.fabric.sim._wake_event(False, exc).callbacks.append(_reraise)
            return
        if event is not None:
            event.callbacks.append(self._resume)


class _Write(_Chain):
    """A posted write's producer: each quantum's first hop, in order.

    Issuing every first hop from one chain lets competing initiators
    interleave fairly at shared links; the rest of each quantum's hops run
    in its own :class:`_Quantum`, giving store-and-forward pipelining.
    """

    __slots__ = (
        "requester",
        "addr",
        "nbytes",
        "payload",
        "behavior",
        "hops",
        "quanta",
        "sent",
        "left",
        "done",
    )

    def __init__(
        self, fabric, requester, addr, nbytes, payload, behavior, hops, quantum, done
    ):
        self.fabric = fabric
        self.step = _Write._send
        self.requester = requester
        self.addr = addr
        self.nbytes = nbytes
        self.payload = payload
        self.behavior = behavior
        self.hops = hops
        wire = fabric._wire_bytes_for_write
        self.quanta = [(a, s, wire(a, s)) for a, s in fragment(addr, nbytes, quantum)]
        self.sent = 0
        self.left = len(self.quanta)
        self.done = done
        self._start()

    def _send(self) -> Optional[Event]:
        """Start the quantum that just crossed the first hop; send the next."""
        quanta, hops, i = self.quanta, self.hops, self.sent
        if i and hops:
            self._forward(i - 1)
        while i < len(quanta):
            qaddr, qsize, wire = quanta[i]
            i += 1
            self.sent = i
            if hops:
                link, direction = hops[0]
                return self.fabric._cross(
                    link, direction, _MWR, qaddr, qsize, wire, self.requester
                )
            self._forward(i - 1)
        return None

    def _forward(self, k: int) -> None:
        """Send quantum *k* on from the first hop's far end."""
        qaddr, qsize, wire = self.quanta[k]
        absorbed = Event(self.fabric.sim)
        absorbed.callbacks.append(self._absorbed)
        # The full payload is delivered once, with the whole write's base
        # address and size, when the final quantum is absorbed.
        last = k == len(self.quanta) - 1
        delivery = (self.addr, self.nbytes, self.payload) if last else None
        _Quantum(
            self.fabric,
            self.requester,
            qaddr,
            qsize,
            wire,
            self.hops,
            self.behavior,
            delivery,
            absorbed,
        )

    def _absorbed(self, _event: Event) -> None:
        self.left -= 1
        if self.left == 0:
            self.done.succeed(self.nbytes)


class _Quantum(_Chain):
    """One write quantum after its first hop: the remaining hops, then the
    target's sink limiter, then (for the last quantum) delivery."""

    __slots__ = (
        "requester",
        "addr",
        "nbytes",
        "wire",
        "hops",
        "hop",
        "behavior",
        "delivery",
        "done",
    )

    def __init__(self, fabric, requester, addr, nbytes, wire, hops, behavior, delivery, done):
        self.fabric = fabric
        self.step = _Quantum._hop
        self.requester = requester
        self.addr = addr
        self.nbytes = nbytes
        self.wire = wire
        self.hops = hops
        self.hop = 1
        self.behavior = behavior
        self.delivery = delivery
        self.done = done
        self._start()

    def _hop(self) -> Optional[Event]:
        """Cross the next hop; past the last, enter the target's limiter."""
        hop = self.hop
        if hop < len(self.hops):
            self.hop = hop + 1
            link, direction = self.hops[hop]
            return self.fabric._cross(
                link, direction, _MWR, self.addr, self.nbytes, self.wire, self.requester
            )
        self.step = _Quantum._absorb
        limiter = self.behavior.limiter
        if limiter is not None:
            return limiter.consume(self.nbytes)
        return self._absorb()

    def _absorb(self) -> None:
        on_write = self.behavior.on_write
        if self.delivery is not None and on_write is not None:
            on_write(*self.delivery)
        self.done.succeed(self.nbytes)


class _Read(_Chain):
    """One split transaction: a header-only MRd crosses to the target, the
    target's first-access latency and rate limiter pass, and MPS-chunked
    completions cross back."""

    __slots__ = ("requester", "addr", "nbytes", "behavior", "fwd", "rev", "hop", "done")

    def __init__(self, fabric, requester, addr, nbytes, behavior, fwd, rev, done):
        self.fabric = fabric
        self.step = _Read._request
        self.requester = requester
        self.addr = addr
        self.nbytes = nbytes
        self.behavior = behavior
        self.fwd = fwd
        self.rev = rev
        self.hop = 0
        self.done = done
        self._start()

    def _request(self) -> Optional[Event]:
        """Cross the next request hop; at the target, its first access."""
        hop = self.hop
        if hop < len(self.fwd):
            self.hop = hop + 1
            link, direction = self.fwd[hop]
            return self.fabric._cross(
                link, direction, _MRD, self.addr, self.nbytes, _MRD_WIRE, self.requester
            )
        self.step = _Read._pace
        latency = self.behavior.latency
        if latency > 0:
            return self.fabric.sim.timeout(latency)
        return self._pace()

    def _pace(self) -> Optional[Event]:
        """Sustained-rate pacing at the target."""
        self.step = _Read._complete
        self.hop = 0
        limiter = self.behavior.limiter
        if limiter is not None:
            return limiter.consume(self.nbytes)
        return self._complete()

    def _complete(self) -> Optional[Event]:
        """Cross the next completion hop; the last one lands the data."""
        hop = self.hop
        nbytes = self.nbytes
        if hop < len(self.rev):
            self.hop = hop + 1
            link, direction = self.rev[hop]
            fabric = self.fabric
            wire = nbytes + _tlp_count(self.addr, nbytes, fabric.mps) * _CPLD_OVERHEAD
            return fabric._cross(
                link, direction, _CPLD, self.addr, nbytes, wire, self.requester
            )
        self.done.succeed(nbytes)
        return None


class _ReadPipelined(_Chain):
    """A windowed bulk read: *outstanding* reads in flight at most, each
    new one issued when the oldest has landed."""

    __slots__ = (
        "initiator",
        "nbytes",
        "outstanding",
        "on_data",
        "chunks",
        "issued",
        "landed",
        "window",
        "done",
    )

    def __init__(self, fabric, initiator, addr, nbytes, outstanding, rs, on_data, done):
        self.fabric = fabric
        self.step = _ReadPipelined._issue
        self.initiator = initiator
        self.nbytes = nbytes
        self.outstanding = outstanding
        self.on_data = on_data
        self.chunks = list(fragment(addr, nbytes, rs))
        self.issued = 0
        self.landed = 0
        self.window: deque[Event] = deque()
        self.done = done
        self._start()

    def _issue(self) -> Optional[Event]:
        """Issue reads while the window has room; else wait on the oldest."""
        chunks, window = self.chunks, self.window
        while self.issued < len(chunks):
            while len(window) >= self.outstanding:
                oldest = window.popleft()
                if not oldest.processed:
                    return oldest
            caddr, csize = chunks[self.issued]
            self.issued += 1
            ev = self.fabric.read(self.initiator, caddr, csize)
            ev.callbacks.append(partial(self._land, caddr, csize))
            window.append(ev)
        return None

    def _land(self, caddr: int, csize: int, _event: Event) -> None:
        self.landed += 1
        if self.on_data is not None:
            self.on_data(caddr, csize)
        if self.landed == len(self.chunks):
            self.done.succeed(self.nbytes)
