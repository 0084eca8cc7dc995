"""CUDA-like host runtime: UVA pointers, streams, memcpy cost model."""

from .config import DEFAULT_COSTS, CudaCosts
from .memcpy import MemcpyKind, classify, memcpy_async, memcpy_device_work, memcpy_sync
from .pointer import MemoryType, PointerAttributes
from .runtime import CudaRuntime
from .stream import CudaStream

__all__ = [
    "CudaCosts",
    "DEFAULT_COSTS",
    "CudaRuntime",
    "CudaStream",
    "MemcpyKind",
    "classify",
    "memcpy_sync",
    "memcpy_async",
    "memcpy_device_work",
    "MemoryType",
    "PointerAttributes",
]
