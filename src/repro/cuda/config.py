"""CUDA runtime cost model constants.

The paper's staging-vs-P2P results hinge on host-side CUDA call overheads:

* a synchronous ``cudaMemcpy`` costs ~10 µs of non-overlappable host time
  ("the single cudaMemcpy overhead can be estimated around 10 µs, which was
  confirmed by doing simple CUDA tests on the same hosts", §V.C);
* asynchronous copies on independent streams only pay an enqueue cost, which
  is how MVAPICH2-style pipelining hides transfer time for large messages;
* ``cuPointerGetAttribute`` "is possibly expensive, at least on early CUDA 4
  releases" (§IV.A) — the APEnet+ PUT API's compile-time buffer-type flag
  exists precisely to avoid it on the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import us

__all__ = ["CudaCosts", "DEFAULT_COSTS"]


@dataclass(frozen=True)
class CudaCosts:
    """Host-visible costs of CUDA runtime operations (ns)."""

    # Synchronous cudaMemcpy: driver entry + DMA setup + completion spin.
    sync_memcpy_overhead: float = us(10.0)
    # cudaMemcpyAsync enqueue (host returns immediately after this).
    async_enqueue_cost: float = us(1.2)
    # cudaEventRecord / cudaStreamWaitEvent bookkeeping.
    event_record_cost: float = us(0.5)
    # cudaStreamSynchronize / cudaEventSynchronize entry cost.
    sync_call_cost: float = us(1.0)
    # cuPointerGetAttribute query.
    attribute_query_cost: float = us(1.0)
    # Kernel launch (host side).
    kernel_launch_cost: float = us(5.0)
    # cudaMalloc / cudaFree (not on any critical path we model).
    malloc_cost: float = us(50.0)


DEFAULT_COSTS = CudaCosts()
