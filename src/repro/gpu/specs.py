"""Spec sheets for the GPUs used in the paper's evaluation.

All externally-observable protocol constants come from the paper:

* Fermi P2P read: 1.8 µs head latency, 1536 MB/s sustained (Fig 3);
* Fermi BAR1 read: 150 MB/s (Table I);
* Kepler P2P / BAR1 read: 1.6 GB/s (Table I, pre-release K20 with ECC on);
* GPU DMA engine (cudaMemcpy) D2H ~5.5 GB/s on Gen2 x16 (§V.B);
* P2P writes: the GPU "has no problem sustaining the PCIe X8 Gen2 traffic"
  (§V.A), so no spec field limits them: only the link does.

The memory-page granularity of the P2P protocol is 64 KB (§III.A).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import GBps, GiB, KiB, MBps, MiB, us

__all__ = [
    "GPUSpec",
    "FERMI_2050",
    "FERMI_2070",
    "FERMI_2075",
    "KEPLER_K10",
    "KEPLER_K20",
    "GPU_PAGE_SIZE",
]

# GPUDirect P2P page granularity ("one page descriptor for each 64 KB page").
GPU_PAGE_SIZE = 64 * KiB


@dataclass(frozen=True)
class GPUSpec:
    """Static parameters of one GPU model."""

    name: str
    arch: str  # "fermi" | "kepler"
    vram: int  # device memory bytes
    # --- GPUDirect P2P protocol, as seen by a third-party device ---
    p2p_read_head_latency: float  # first-data latency of the mailbox protocol
    p2p_read_rate: float  # sustained response rate, bytes/ns
    # --- BAR1 aperture ---
    bar1_size: int
    bar1_read_latency: float
    bar1_read_rate: float
    bar1_map_cost: float  # "expensive... full reconfiguration of the GPU"
    # --- DMA copy engine (cudaMemcpy) ---
    dma_d2h_rate: float
    dma_h2d_rate: float
    # --- misc ---
    ecc: bool = False
    # Internal memory bandwidth (kernels); only used by app perf models.
    mem_bandwidth: float = GBps(120.0)


FERMI_2050 = GPUSpec(
    name="Tesla C2050",
    arch="fermi",
    vram=3 * GiB,
    p2p_read_head_latency=us(1.8),
    p2p_read_rate=MBps(1536),
    bar1_size=256 * MiB,
    bar1_read_latency=us(1.3),
    bar1_read_rate=MBps(150),
    bar1_map_cost=us(500),
    dma_d2h_rate=GBps(5.5),
    dma_h2d_rate=GBps(5.7),
    ecc=False,
    mem_bandwidth=GBps(144.0),
)

FERMI_2070 = GPUSpec(
    name="Tesla C2070",
    arch="fermi",
    vram=6 * GiB,
    p2p_read_head_latency=us(1.8),
    p2p_read_rate=MBps(1536),
    bar1_size=256 * MiB,
    bar1_read_latency=us(1.3),
    bar1_read_rate=MBps(150),
    bar1_map_cost=us(500),
    dma_d2h_rate=GBps(5.5),
    dma_h2d_rate=GBps(5.7),
    ecc=False,
    mem_bandwidth=GBps(144.0),
)

FERMI_2075 = GPUSpec(
    name="Tesla M2075",
    arch="fermi",
    vram=6 * GiB,
    p2p_read_head_latency=us(1.8),
    p2p_read_rate=MBps(1536),
    bar1_size=256 * MiB,
    bar1_read_latency=us(1.3),
    bar1_read_rate=MBps(150),
    bar1_map_cost=us(500),
    dma_d2h_rate=GBps(5.5),
    dma_h2d_rate=GBps(5.7),
    ecc=False,
    mem_bandwidth=GBps(150.0),
)

KEPLER_K10 = GPUSpec(
    name="Tesla K10",
    arch="kepler",
    vram=4 * GiB,
    p2p_read_head_latency=us(1.5),
    p2p_read_rate=MBps(1600),
    bar1_size=256 * MiB,
    bar1_read_latency=us(0.9),
    bar1_read_rate=MBps(1600),
    bar1_map_cost=us(400),
    dma_d2h_rate=GBps(5.8),
    dma_h2d_rate=GBps(6.0),
    ecc=False,
    mem_bandwidth=GBps(160.0),
)

KEPLER_K20 = GPUSpec(
    name="Tesla K20 (pre-release GK110)",
    arch="kepler",
    vram=5 * GiB,
    p2p_read_head_latency=us(1.5),
    p2p_read_rate=MBps(1600),
    bar1_size=256 * MiB,
    bar1_read_latency=us(0.9),
    bar1_read_rate=MBps(1600),
    bar1_map_cost=us(400),
    dma_d2h_rate=GBps(6.0),
    dma_h2d_rate=GBps(6.2),
    ecc=True,  # "Kepler results are for a pre-release K20 ... with ECC enabled"
    mem_bandwidth=GBps(180.0),
)
