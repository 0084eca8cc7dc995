"""The APEnet+ card model: NI, Nios II firmware, GPU_P2P_TX, router, RDMA."""

from .buflist import BufferKind, BufList, RegisteredBuffer
from .card import CARD_BASE_ADDRESS, ApenetCard
from .config import DEFAULT_CONFIG, ApenetConfig, GpuTxVersion
from .driver import ApenetDriver
from .gpu_tx import GpuTxEngine
from .jobs import TxJob, fragment_message
from .nios import NiosII
from .rdma import ApenetEndpoint
from .router import Router
from .rx import RxCompletion, RxEngine
from .torus import TorusLink, TorusPort, VC_COUNT
from .tx import HostTxEngine
from .v2p import HOST_PAGE_SIZE, PageMap

__all__ = [
    "ApenetCard",
    "CARD_BASE_ADDRESS",
    "ApenetConfig",
    "DEFAULT_CONFIG",
    "GpuTxVersion",
    "ApenetEndpoint",
    "ApenetDriver",
    "NiosII",
    "BufList",
    "BufferKind",
    "RegisteredBuffer",
    "PageMap",
    "HOST_PAGE_SIZE",
    "Router",
    "TorusLink",
    "TorusPort",
    "VC_COUNT",
    "HostTxEngine",
    "GpuTxEngine",
    "RxEngine",
    "RxCompletion",
    "TxJob",
    "fragment_message",
]
