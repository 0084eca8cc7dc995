"""``cudaMemcpy``: the host-staging copies, device work and host-side costs.

The model copies in the two staging directions the paper's host-staged
paths use, D2H and H2D, told apart by the UVA pointers
(:meth:`~repro.cuda.runtime.CudaRuntime.locate`, cudaMemcpyDefault
semantics).  Any other pair of pointers raises.  The device-side work runs
on the GPU's one copy engine (:mod:`repro.gpu.dma`); this module adds the
host-visible behaviour:

* **sync** copies block the caller for ``sync_memcpy_overhead`` (~10 µs,
  §V.C) plus the full transfer — the cost that makes staging expensive;
* **async** copies charge only an enqueue cost and run on a
  :class:`~repro.cuda.stream.CudaStream`.

The bytes move once, when the device work completes: the destination
buffer takes what the source buffer reads, so an untracked source leaves
the destination as it is.
"""

from __future__ import annotations

from ..sim import Process
from .runtime import CudaRuntime
from .stream import CudaStream

__all__ = ["memcpy_device_work", "memcpy_sync", "memcpy_async"]


def memcpy_device_work(rt: CudaRuntime, dst: int, src: int, nbytes: int) -> Process:
    """Start the device-side D2H or H2D transfer; returns its process,
    which completes with the byte count once the bytes have moved.

    No host cost is charged here — callers wrap this with sync/async
    semantics.
    """
    if nbytes <= 0:
        raise ValueError("memcpy needs a positive size")
    dst_gpu, dst_buf = rt.locate(dst)
    src_gpu, src_buf = rt.locate(src)
    if not (src_buf.contains(src, nbytes) and dst_buf.contains(dst, nbytes)):
        # The completion copies between the buffers: fail here, not there.
        raise ValueError(f"memcpy of {nbytes} bytes overruns its source or destination")
    if dst_gpu is None and src_gpu is not None:
        done = src_gpu.dma.device_to_host(dst, nbytes)
    elif src_gpu is None and dst_gpu is not None:
        done = dst_gpu.dma.host_to_device(src, nbytes)
    else:
        raise ValueError(
            "cudaMemcpy models the staging directions D2H and H2D only: a "
            "copy within one GPU or between two host buffers is not "
            "modelled (the paper's GPU peer-to-peer traffic goes through "
            "the APEnet+ card)"
        )
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
    return stream.enqueue(lambda: memcpy_device_work(rt, dst, src, nbytes))
