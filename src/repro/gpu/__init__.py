"""NVIDIA GPU device model: GPUDirect P2P, BAR1, DMA, kernels.

A GPU's global memory and its BAR1 windows are each one
:class:`~repro.pcie.device.BufferHeap` of 64 KB pages.
"""

from .bar1 import Bar1Aperture, Bar1Error
from .device import GPUDevice
from .dma import DmaEngine
from .kernels import KERNEL_LAUNCH_OVERHEAD, ComputeEngine, KernelLaunch
from .p2p import GPU_READ_CHUNK, REQUEST_DESCRIPTOR_BYTES, P2PReadEngine, P2PReadRequest
from .specs import (
    FERMI_2050,
    FERMI_2070,
    FERMI_2075,
    GPU_PAGE_SIZE,
    KEPLER_K10,
    KEPLER_K20,
    GPUSpec,
)

__all__ = [
    "GPUDevice",
    "GPUSpec",
    "FERMI_2050",
    "FERMI_2070",
    "FERMI_2075",
    "KEPLER_K10",
    "KEPLER_K20",
    "GPU_PAGE_SIZE",
    "P2PReadEngine",
    "P2PReadRequest",
    "GPU_READ_CHUNK",
    "REQUEST_DESCRIPTOR_BYTES",
    "Bar1Aperture",
    "Bar1Error",
    "DmaEngine",
    "ComputeEngine",
    "KernelLaunch",
    "KERNEL_LAUNCH_OVERHEAD",
]
