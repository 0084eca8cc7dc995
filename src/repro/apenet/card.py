"""The assembled APEnet+ card: DNP (NI + router + torus ports) on PCIe.

Fabric windows:

* ``regs`` — descriptor-queue writes from the kernel driver land here; the
  write hook dispatches :class:`~repro.apenet.jobs.TxJob` objects to the
  host or GPU TX engine;
* ``gpu_data`` — reply target for the GPU P2P read protocol: the GPU's
  pushed chunks land here and feed :class:`GpuTxEngine.on_response`.

The card must be attached to a host PCIe fabric (it initiates descriptor
reads, RX writes and mailbox writes) and wired into the torus by the
cluster builder, whose route table every card's router shares.
"""

from __future__ import annotations

from typing import Any

from ..gpu.device import GPUDevice
from ..gpu.specs import GPU_PAGE_SIZE
from ..net.topology import Coord, RouteTable
from ..pcie.device import PCIeDevice, ReadBehavior, WriteBehavior
from ..sim import Simulator
from .buflist import BufList
from .config import DEFAULT_CONFIG, ApenetConfig
from .gpu_tx import GpuTxEngine
from .jobs import TxJob
from .nios import NiosII
from .router import Router
from .rx import RxEngine
from .tx import HostTxEngine
from .v2p import HOST_PAGE_SIZE, PageMap
from .buflist import BufferKind

__all__ = ["ApenetCard", "CARD_BASE_ADDRESS"]

CARD_BASE_ADDRESS = 0x400_0000_0000
_REGS_SIZE = 64 * 1024
_GPU_DATA_SIZE = 2 * 1024 * 1024


class ApenetCard(PCIeDevice):
    """One APEnet+ board."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        coord: Coord,
        routes: RouteTable,
        gpu: GPUDevice,
        config: ApenetConfig = DEFAULT_CONFIG,
    ):
        super().__init__(sim, name)
        self.config = config
        self.coord = coord
        self.shape = routes.shape
        self.regs_window = self.add_window(CARD_BASE_ADDRESS, _REGS_SIZE, "regs")
        self.gpu_data_window = self.add_window(
            CARD_BASE_ADDRESS + _REGS_SIZE, _GPU_DATA_SIZE, "gpu-data"
        )

        self.nios = NiosII(sim, f"{name}.nios")
        self.buflist = BufList(f"{name}.buflist")
        self.host_v2p = PageMap(HOST_PAGE_SIZE)
        # The node's GPU, which GPU_P2P_TX reads, and its V2P table.
        self.gpu = gpu
        self.gpu_v2p = PageMap(GPU_PAGE_SIZE)
        # BAR1-TX extension: registered GPU buffers' BAR1 addresses,
        # keyed by buffer base address (see config.gpu_tx_method).
        self.bar1_tx_maps: dict[int, int] = {}
        self.endpoint = None  # set by ApenetEndpoint

        self.rx = RxEngine(sim, self)
        self.router = Router(
            sim, coord, routes, config, deliver_local=self.rx.admit, name=f"{name}.rtr"
        )
        self.host_tx = HostTxEngine(sim, self)
        self.gpu_tx = GpuTxEngine(sim, self)

        self._regs_write = WriteBehavior(on_write=self._on_regs_write)
        self._gpu_data_write = WriteBehavior(on_write=self._on_gpu_data_write)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    @property
    def rank(self) -> int:
        """This card's linear rank in the torus."""
        return self.shape.rank(self.coord)

    # ------------------------------------------------------------------
    # PCIe target behaviour
    # ------------------------------------------------------------------

    def describe_write(self, addr: int) -> WriteBehavior:
        if self.regs_window.contains(addr):
            return self._regs_write
        if self.gpu_data_window.contains(addr):
            return self._gpu_data_write
        raise KeyError(f"{self.name}: write outside card windows: 0x{addr:x}")

    def describe_read(self, addr: int) -> ReadBehavior:
        raise PermissionError(f"{self.name}: card windows are write-only")

    def _on_regs_write(self, addr: int, nbytes: int, payload: Any) -> None:
        if payload is None:
            return  # doorbell
        if not isinstance(payload, TxJob):
            raise TypeError(f"{self.name}: regs window expects TxJob, got {type(payload)!r}")
        if payload.src_kind is BufferKind.GPU:
            self.gpu_tx.enqueue(payload)
        else:
            self.host_tx.enqueue(payload)

    def _on_gpu_data_write(self, addr: int, nbytes: int, payload: Any) -> None:
        self.gpu_tx.on_response(nbytes, payload)
