"""The GPU copy engine — the hardware behind ``cudaMemcpy``.

The model drives one copy engine per GPU, for both staging directions, so
a D2H copy and an H2D copy serialize on it.  The paper's Fermi boards have
two; driving the second would move the staging and MPI rows (DESIGN.md
§7).  Engine throughput is the spec's ``dma_*_rate`` (≈5.5 GB/s D2H on
the paper's platforms).  The engine models time only: it is given the
host address its PCIe traffic targets, and :mod:`repro.cuda.memcpy` moves
a copy's bytes when the engine's work completes.

The per-call *host-side* overhead of ``cudaMemcpy`` (~10 µs for synchronous
calls, §V.C) belongs to the CUDA runtime layer, not the engine.
"""

from __future__ import annotations

from typing import Any

from ..sim import Channel, Process, Resource, Simulator

__all__ = ["DmaEngine"]


class DmaEngine:
    """The GPU's copy engine: serialized, rate-limited bulk transfers."""

    def __init__(self, sim: Simulator, gpu: Any):
        self.sim = sim
        self.gpu = gpu
        self.busy = Resource(sim, 1, f"{gpu.name}.ce")
        spec = gpu.spec
        self._d2h = Channel(sim, spec.dma_d2h_rate, name=f"{gpu.name}.d2h")
        self._h2d = Channel(sim, spec.dma_h2d_rate, name=f"{gpu.name}.h2d")

    # The engine moves data over PCIe in large bursts; the fabric accounts
    # TLP overhead, the limiter accounts the engine's own ceiling.  Each
    # copy is a process that completes with its byte count.

    def device_to_host(self, host_addr: int, nbytes: int) -> Process:
        """DMA *nbytes* of device memory to *host_addr*; the returned
        process completes when the copy is done."""
        return self.sim.process(self._d2h_proc(host_addr, nbytes))

    def _d2h_proc(self, host_addr, nbytes):
        obs = self.sim._obs
        span = None
        if obs is not None:
            # Spans include time queued behind the engine's other copies.
            span = obs.span("gpu", "dma_d2h", nbytes=nbytes)
        yield self.busy.acquire()
        try:
            # Engine ceiling and PCIe wire time overlap; the slower wins.
            rate_ev = self._d2h.transfer(nbytes)
            wire_ev = self.gpu.fabric.write(self.gpu, host_addr, nbytes)
            yield self.sim.all_of([rate_ev, wire_ev])
        finally:
            self.busy.release()
        if span is not None:
            span.end()
        return nbytes

    def host_to_device(self, host_addr: int, nbytes: int) -> Process:
        """DMA *nbytes* from *host_addr* into device memory; the returned
        process completes when the copy is done."""
        return self.sim.process(self._h2d_proc(host_addr, nbytes))

    def _h2d_proc(self, host_addr, nbytes):
        obs = self.sim._obs
        span = None
        if obs is not None:
            span = obs.span("gpu", "dma_h2d", nbytes=nbytes)
        yield self.busy.acquire()
        try:
            rate_ev = self._h2d.transfer(nbytes)
            # The engine reads host memory with deep request pipelining
            # (GPU DMA engines keep dozens of reads in flight).
            wire_ev = self.gpu.fabric.read_pipelined(
                self.gpu, host_addr, nbytes, outstanding=32
            )
            yield self.sim.all_of([rate_ev, wire_ev])
        finally:
            self.busy.release()
        if span is not None:
            span.end()
        return nbytes
