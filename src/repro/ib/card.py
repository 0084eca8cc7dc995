"""The ConnectX-2 HCA model.

Send path (RDMA-write semantics, which is what MVAPICH2's eager and
rendezvous protocols reduce to):

1. the host posts a work request (doorbell write, small host cost),
2. the HCA DMA-reads the source out of host memory (deeply pipelined
   MRRS reads; ceiling set by the PCIe slot — the x4 slot of Cluster I's
   motherboards is faithfully supported), taking each quantum's bytes
   from the source buffer when its reads complete,
3. 64 KiB quanta stream through the switch,
4. the destination HCA DMA-writes the user/eager buffer and raises a
   completion that the MPI progress engine consumes.

No GPUDirect: ConnectX-2 cannot touch GPU memory (the entire point of the
paper) — GPU pointers must be staged by the MPI layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import itertools

import numpy as np

from ..pcie.device import PCIeDevice, ReadBehavior, WriteBehavior
from ..sim import Channel, Process, Simulator
from ..units import KiB, us
from .fabric import IBFabric, IBPort

__all__ = ["IBCard", "IBMessage"]

_SEND_QUANTUM = 64 * KiB
_CARD_BASE = 0x500_0000_0000


@dataclass
class IBMessage:
    """One wire quantum: RDMA-write to ``dst_addr`` at the target node."""

    dst_addr: int
    nbytes: int
    meta: Any = None
    data: Optional[np.ndarray] = field(default=None, repr=False)
    wire_id: int = 0  # groups the quanta of one rdma_write
    total_bytes: int = 0  # whole-message size


class IBCard(PCIeDevice):
    """One HCA on a node's PCIe fabric."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ib_fabric: IBFabric,
        pcie_read_rate: float,
    ):
        super().__init__(sim, name)
        self.regs_window = self.add_window(_CARD_BASE, 64 * KiB, "regs")
        self.ib = ib_fabric
        self.port: IBPort = ib_fabric.attach(self._on_wire_arrival)
        # DMA-read ceiling, which the cluster builder sets by slot width
        # (x8 ≈ 3.2 GB/s, x4 ≈ 1.55 GB/s effective).
        self.read_limiter = Channel(sim, pcie_read_rate, name=f"{name}.rd")
        # Called with (IBMessage) when a full message has landed in host
        # memory; the MPI progress engine registers here.
        self.on_receive: Optional[Callable[[IBMessage], None]] = None
        # Per-message landed-byte accounting: completion fires only when
        # every quantum's host write has finished (quanta writes interleave
        # on the PCIe path, so "last sent" is not "last landed").
        self._landed: dict[int, int] = {}
        # Post + completion host-side costs (verbs + driver).
        self.post_cost = us(0.25)
        self.completion_cost = us(0.25)

    @property
    def lid(self) -> int:
        """This HCA's LID on the switch."""
        return self.port.lid

    def describe_write(self, addr: int) -> WriteBehavior:
        return WriteBehavior()  # doorbells only; dispatch is via rdma_write

    def describe_read(self, addr: int) -> ReadBehavior:
        raise PermissionError(f"{self.name}: HCA windows are write-only")

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------

    def rdma_write(
        self,
        dst_lid: int,
        src_addr: int,
        dst_addr: int,
        nbytes: int,
        meta: Any = None,
    ) -> Process:
        """Post one RDMA write from host memory; the returned process
        completes at LOCAL completion, with the byte count.

        Local completion means the last quantum is on the wire.  Remote
        arrival is signalled through the destination card's ``on_receive``.
        """
        if nbytes <= 0:
            raise ValueError("rdma_write needs a positive size")
        return self.sim.process(
            self._send_proc(dst_lid, src_addr, dst_addr, nbytes, meta),
            name=f"{self.name}.send",
        )

    _wire_ids = itertools.count(1)

    def _send_proc(self, dst_lid, src_addr, dst_addr, nbytes, meta):
        # The HCA reads host memory only: no GPUDirect on ConnectX-2.
        src_buf = self.fabric.resolve(src_addr).heap.buffer_at(src_addr)
        # Stream the message in quanta: DMA read and wire overlap.
        off = 0
        wire_id = next(self._wire_ids)
        while off < nbytes:
            csize = min(_SEND_QUANTUM, nbytes - off)
            # Pull from host memory: engine ceiling + PCIe transaction.
            rate_ev = self.read_limiter.transfer(csize)
            read_ev = self.fabric.read_pipelined(
                self, src_addr + off, csize, outstanding=16
            )
            yield self.sim.all_of([rate_ev, read_ev])
            msg = IBMessage(
                dst_addr=dst_addr + off,
                nbytes=csize,
                meta=meta,
                # The quantum was DMA-read just now; the source buffer may
                # legitimately be reused before wire delivery.
                data=src_buf.read_bytes(src_addr + off, csize),
                wire_id=wire_id,
                total_bytes=nbytes,
            )
            self.ib.send(self.lid, dst_lid, csize, msg)
            off += csize
        # Local completion: last quantum handed to the wire.
        return nbytes

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def _on_wire_arrival(self, msg: IBMessage) -> None:
        self.sim.process(self._rx_proc(msg), name=f"{self.name}.rx")

    def _rx_proc(self, msg: IBMessage):
        # DMA-write the quantum into host memory.
        yield self.fabric.write(self, msg.dst_addr, msg.nbytes, payload=msg.data)
        landed = self._landed.get(msg.wire_id, 0) + msg.nbytes
        if landed < msg.total_bytes:
            self._landed[msg.wire_id] = landed
            return
        self._landed.pop(msg.wire_id, None)
        if self.on_receive is not None:
            self.on_receive(msg)
