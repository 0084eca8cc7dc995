"""``cudaMemcpy`` paths: classification, device work, and host-side costs.

The copy *kind* is inferred from the UVA pointers (cudaMemcpyDefault
semantics).  Device-side work runs on the GPU DMA engines
(:mod:`repro.gpu.dma`); this module adds the host-visible behaviour:

* **sync** copies block the caller for ``sync_memcpy_overhead`` (~10 µs,
  §V.C) plus the full transfer — the cost that makes staging expensive;
* **async** copies charge only an enqueue cost and run on a
  :class:`~repro.cuda.stream.CudaStream`.

The bytes move once, when the device work completes: the destination
buffer takes what the source buffer reads, so an untracked source leaves
the destination as it is.
"""

from __future__ import annotations

import enum

from ..sim import Process
from .runtime import CudaRuntime
from .stream import CudaStream

__all__ = ["MemcpyKind", "classify", "memcpy_device_work", "memcpy_sync", "memcpy_async"]

# Plain host memcpy bandwidth (bytes/ns) for H2H staging copies.
_HOST_MEMCPY_RATE = 6.0


class MemcpyKind(enum.Enum):
    """Transfer direction, as in the cudaMemcpyKind enum."""

    H2H = "HostToHost"
    H2D = "HostToDevice"
    D2H = "DeviceToHost"
    D2D = "DeviceToDevice"  # same GPU
    P2P = "PeerToPeer"  # different GPUs


def classify(rt: CudaRuntime, dst: int, src: int) -> MemcpyKind:
    """Infer the copy kind from two UVA pointers."""
    d = rt.pointer_attributes(dst)
    s = rt.pointer_attributes(src)
    if s.is_device and d.is_device:
        if s.device_index == d.device_index:
            return MemcpyKind.D2D
        return MemcpyKind.P2P
    if s.is_device:
        return MemcpyKind.D2H
    if d.is_device:
        return MemcpyKind.H2D
    return MemcpyKind.H2H


def memcpy_device_work(rt: CudaRuntime, dst: int, src: int, nbytes: int) -> Process:
    """Start the device-side transfer; returns its process, which
    completes with the byte count once the bytes have moved.

    No host cost is charged here — callers wrap this with sync/async
    semantics.
    """
    if nbytes <= 0:
        raise ValueError("memcpy needs a positive size")
    kind = classify(rt, dst, src)
    if kind is MemcpyKind.P2P:
        raise ValueError(
            "cudaMemcpy between two GPUs is not modelled; the paper's GPU "
            "peer-to-peer traffic goes through the APEnet+ card"
        )
    sim = rt.sim
    src_gpu, dst_gpu = rt.owner_gpu(src), rt.owner_gpu(dst)
    src_buf = (rt.host_heap if src_gpu is None else src_gpu.heap).buffer_at(src)
    dst_buf = (rt.host_heap if dst_gpu is None else dst_gpu.heap).buffer_at(dst)

    if kind is MemcpyKind.D2H:
        done = src_gpu.dma.device_to_host(dst, nbytes)
    elif kind is MemcpyKind.H2D:
        done = dst_gpu.dma.host_to_device(src, nbytes)
    elif kind is MemcpyKind.D2D:
        def _d2d():
            # On-device copy: read + write against device memory bandwidth.
            yield sim.timeout(nbytes / (src_gpu.spec.mem_bandwidth / 2))
            return nbytes

        done = sim.process(_d2d(), name=f"{src_gpu.name}.d2d")
    else:  # H2H
        def _h2h():
            yield sim.timeout(nbytes / _HOST_MEMCPY_RATE)
            return nbytes

        done = sim.process(_h2h(), name="h2h")
    done.callbacks.append(
        lambda _ev: dst_buf.write_bytes(dst, src_buf.read_bytes(src, nbytes))
    )
    return done


def memcpy_sync(rt: CudaRuntime, dst: int, src: int, nbytes: int):
    """Synchronous cudaMemcpy (generator: ``yield from``).

    Blocks the calling host process for the ~10 µs call overhead plus the
    entire transfer — "fully synchronous with respect to the host,
    therefore it does not overlap" (§V.C).
    """
    obs = rt.sim._obs
    span = None
    if obs is not None:
        span = obs.span("cuda", "memcpy_sync", nbytes=nbytes)
    yield rt.sim.timeout(rt.costs.sync_memcpy_overhead)
    yield memcpy_device_work(rt, dst, src, nbytes)
    if span is not None:
        span.end()
    return nbytes


def memcpy_async(
    rt: CudaRuntime, dst: int, src: int, nbytes: int, stream: CudaStream
):
    """cudaMemcpyAsync on *stream* (generator; returns completion event).

    The caller pays only the enqueue cost; the transfer runs in stream
    order.  ``ev = yield from memcpy_async(...)`` then later ``yield ev``.
    """
    yield rt.sim.timeout(rt.costs.async_enqueue_cost)
    return stream.enqueue(
        lambda: memcpy_device_work(rt, dst, src, nbytes), f"memcpy:{nbytes}"
    )
