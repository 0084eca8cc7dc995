"""PCIe endpoint base class and target-side behaviour descriptors.

A device participates in the fabric in two roles:

* **initiator** — it calls :meth:`repro.pcie.fabric.PCIeFabric.write` /
  :meth:`~repro.pcie.fabric.PCIeFabric.read` against remote addresses;
* **target** — the fabric consults :meth:`PCIeDevice.describe_read` /
  :meth:`PCIeDevice.describe_write` for the address being accessed and
  applies the returned :class:`ReadBehavior` / :class:`WriteBehavior`
  (first-access latency, sustained-rate limiter, delivery hook).

The :class:`MemoryBuffer` is the byte store behind an allocation in any
device's memory (a pinned host buffer, a GPU buffer), and the one place
that knows whether a run tracks bytes: a buffer nothing ever wrote reads
as ``None``, so timing-only runs build no byte array, and every engine
that models a read takes the bytes from the buffer when it reads.  One
:class:`BufferHeap` hands out and finds every allocation of one memory:
pinned host memory (:attr:`HostMemory.heap`), each GPU's global memory and
each GPU's BAR1 windows.

Behaviour objects are *shared* across transactions so that a single
zero-latency :class:`~repro.sim.channel.Channel` naturally serializes
concurrent accesses to the same internal engine (e.g. a GPU's BAR1 read
path).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ..sim import Channel, Simulator
from ..units import GBps, GiB, KiB, ns

__all__ = [
    "ReadBehavior",
    "WriteBehavior",
    "AddressWindow",
    "MemoryBuffer",
    "BufferHeap",
    "OutOfMemoryError",
    "PCIeDevice",
    "HostMemory",
    "HOST_PAGE_SIZE",
]


@dataclass
class ReadBehavior:
    """How a device serves inbound memory-read requests.

    ``latency`` — time from request arrival to first completion data
    (device-internal; link traversal is added by the fabric).
    ``limiter`` — optional shared zero-latency channel bounding sustained
    completion production (None = only the link limits).
    """

    latency: float
    limiter: Optional[Channel] = None


@dataclass
class WriteBehavior:
    """How a device absorbs inbound posted writes.

    ``limiter`` — optional shared zero-latency channel bounding the sink
    rate.
    ``on_write`` — called as ``on_write(addr, nbytes, payload)`` when the
    last TLP of a write transaction arrives (payload rides on that TLP).
    """

    limiter: Optional[Channel] = None
    on_write: Optional[Callable[[int, int, Any], None]] = None


@dataclass
class AddressWindow:
    """One BAR-like address range owned by a device."""

    base: int
    size: int
    label: str = ""

    @property
    def limit(self) -> int:
        """One past the last byte of the window."""
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        """True if *addr* falls inside the window."""
        return self.base <= addr < self.limit


@dataclass
class MemoryBuffer:
    """One allocation in a device's memory; it holds bytes once written.

    Until something writes it (:meth:`write_bytes` with real bytes, or
    host code through :attr:`data`) the buffer is untracked:
    :meth:`read_bytes` returns ``None`` and a ``None`` write changes
    nothing, so an untracked source leaves its destination as it is.
    """

    addr: int
    size: int
    _data: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.addr + self.size

    @property
    def data(self) -> np.ndarray:
        """Byte view of the contents; the first access zero-fills them."""
        if self._data is None:
            self._data = np.zeros(self.size, dtype=np.uint8)
        return self._data

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        """True if [addr, addr+nbytes) falls inside the buffer."""
        return self.addr <= addr and addr + nbytes <= self.end

    def write_bytes(self, addr: int, payload: Optional[np.ndarray]) -> None:
        """Copy *payload* in at fabric address *addr*; ``None`` changes nothing."""
        if payload is None:
            return
        off = addr - self.addr
        if off < 0 or off + len(payload) > self.size:
            raise IndexError("write outside buffer bounds")
        self.data[off : off + len(payload)] = payload

    def read_bytes(self, addr: int, nbytes: int) -> Optional[np.ndarray]:
        """A copy of *nbytes* from fabric address *addr*; ``None`` if untracked."""
        off = addr - self.addr
        if off < 0 or off + nbytes > self.size:
            raise IndexError("read outside buffer bounds")
        if self._data is None:
            return None
        return self._data[off : off + nbytes].copy()


class OutOfMemoryError(MemoryError):
    """A :class:`BufferHeap` has no room left for an allocation."""


class BufferHeap:
    """Bump allocator over ``[base, base + size)`` in whole pages.

    Nothing in the model frees memory, so each allocation starts where
    the previous one's last page ends, and buffers stay sorted by address
    for :meth:`buffer_at`'s bisect.
    """

    def __init__(self, base: int, size: int, page: int, name: str):
        self.base = base
        self.size = size
        self.page = page
        self.name = name
        self._brk = base
        self._starts: list[int] = []
        self._bufs: list[MemoryBuffer] = []

    def alloc(self, nbytes: int) -> MemoryBuffer:
        """A new buffer of *nbytes*; the heap advances by whole pages."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        need = -(-nbytes // self.page) * self.page
        free = self.base + self.size - self._brk
        if need > free:
            raise OutOfMemoryError(
                f"{self.name}: cannot allocate {nbytes} bytes ({free} free of {self.size})"
            )
        buf = MemoryBuffer(self._brk, nbytes)
        self._brk += need
        self._starts.append(buf.addr)
        self._bufs.append(buf)
        return buf

    def buffer_at(self, addr: int) -> MemoryBuffer:
        """The buffer holding byte *addr*; ``KeyError`` if none does."""
        i = bisect_right(self._starts, addr) - 1
        if i >= 0:
            buf = self._bufs[i]
            if addr < buf.addr + buf.size:
                return buf
        raise KeyError(f"{self.name}: no buffer at 0x{addr:x}")


class PCIeDevice:
    """Base class for anything that plugs into the fabric.

    Subclasses override :meth:`describe_read` / :meth:`describe_write` to
    give per-window behaviour, and may use ``self.fabric`` (set on attach)
    to initiate transactions.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.windows: list[AddressWindow] = []
        self.fabric = None  # set by PCIeFabric.add_endpoint
        self.node = None  # fabric node, set on attach

    def add_window(self, base: int, size: int, label: str = "") -> AddressWindow:
        """Register an address window owned by this device."""
        win = AddressWindow(base, size, label)
        for existing in self.windows:
            if not (win.limit <= existing.base or existing.limit <= win.base):
                raise ValueError(
                    f"{self.name}: window {label!r} overlaps {existing.label!r}"
                )
        self.windows.append(win)
        if self.fabric is not None:
            self.fabric.index_window(self, win)
        return win

    # -- target-side hooks ---------------------------------------------------

    def describe_read(self, addr: int) -> ReadBehavior:
        """Behaviour for an inbound read at *addr*."""
        raise NotImplementedError(f"{self.name} does not serve reads")

    def describe_write(self, addr: int) -> WriteBehavior:
        """Behaviour for an inbound write at *addr*."""
        raise NotImplementedError(f"{self.name} does not accept writes")


#: Host DRAM window size, first-access read latency and DMA rate (each
#: direction): generous on the Westmere platforms, where the paper's
#: bottlenecks are elsewhere.
HOST_MEMORY_SIZE = 64 * GiB
HOST_READ_LATENCY = ns(150.0)
HOST_DMA_RATE = GBps(12.8)
#: Host page size: pinned buffers and the card's host V2P table use it.
HOST_PAGE_SIZE = 4 * KiB
#: Pinned host buffers are carved from the DRAM window from 4 GiB up.
_PINNED_HEAP_OFFSET = 4 * GiB


class HostMemory(PCIeDevice):
    """System DRAM behind the root complex.

    Served through the memory controller: a first-access latency and a rate
    limiter per direction representing achievable DMA bandwidth to DRAM.
    :attr:`heap` holds the pinned buffers; data-carrying inbound writes
    land in them.
    """

    def __init__(self, sim: Simulator, base: int = 0x0, name: str = "host-memory"):
        super().__init__(sim, name)
        self.add_window(base, HOST_MEMORY_SIZE, "dram")
        self.heap = BufferHeap(
            base + _PINNED_HEAP_OFFSET,
            HOST_MEMORY_SIZE - _PINNED_HEAP_OFFSET,
            HOST_PAGE_SIZE,
            f"{name}.heap",
        )
        self._read = ReadBehavior(
            latency=HOST_READ_LATENCY,
            limiter=Channel(sim, HOST_DMA_RATE, name=f"{name}.rd"),
        )
        self._write = WriteBehavior(
            limiter=Channel(sim, HOST_DMA_RATE, name=f"{name}.wr"), on_write=self._deliver
        )

    def _deliver(self, addr: int, nbytes: int, payload: Any) -> None:
        if payload is None:
            return
        try:
            buf = self.heap.buffer_at(addr)
        except KeyError:
            return  # outside every pinned buffer: nothing keeps the bytes
        buf.write_bytes(addr, np.asarray(payload, dtype=np.uint8)[:nbytes])

    def describe_read(self, addr: int) -> ReadBehavior:
        return self._read

    def describe_write(self, addr: int) -> WriteBehavior:
        return self._write
