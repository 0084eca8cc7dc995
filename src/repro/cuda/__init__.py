"""CUDA-like host runtime: the UVA lookup, streams, the staging memcpy cost model."""

from .config import DEFAULT_COSTS, CudaCosts
from .memcpy import memcpy_async, memcpy_device_work, memcpy_sync
from .runtime import CudaRuntime
from .stream import CudaStream

__all__ = [
    "CudaCosts",
    "DEFAULT_COSTS",
    "CudaRuntime",
    "CudaStream",
    "memcpy_sync",
    "memcpy_async",
    "memcpy_device_work",
]
