"""GPU-aware MPI protocols: staging pipelines over host vbufs.

"Both OpenMPI and MVAPICH2 rely on a software approach ... [that] can
increase communication performance for mid-to-large-size messages, thanks
to pipelining implemented at the MPI library level.  On the other hand,
this approach can even hurt performance for medium-size messages, due to
them not using independent CUDA STREAMs, thereby introducing an implicit
synchronization" (§II).

Mechanics modelled here:

* device pointers detected via the UVA registry (cudaMemcpyDefault-style);
* **small** device messages: one synchronous D2H into a vbuf, then the
  normal host path; the receiver drains its vbuf to the GPU with an
  async-copy + event-sync sequence;
* **large** device messages: chunked double-vbuf pipeline — but all copies
  of an endpoint share ONE stream (the implicit-synchronization caveat).
"""

from __future__ import annotations

from typing import Any

from ..apenet.jobs import fragment_message
from ..cuda.memcpy import memcpy_device_work, memcpy_sync
from ..cuda.stream import CudaStream
from ..sim import Event
from ..units import KiB, us

__all__ = ["GpuProtocol", "MVAPICH2Protocol", "OpenMPIProtocol"]


class _VbufPool:
    """Round-robin pool of bounce buffers with reuse guards."""

    def __init__(self, ep, slot_size: int, n_slots: int):
        self.sim = ep.sim
        buf = ep.node.runtime.host_alloc(slot_size * n_slots)
        self.slots = [buf.addr + i * slot_size for i in range(n_slots)]
        self.busy: list[Event] = [None] * n_slots
        self._next = 0

    def acquire(self):
        """Generator: returns (slot_addr, release) once a slot is free."""
        i = self._next
        self._next = (self._next + 1) % len(self.slots)
        prev = self.busy[i]
        if prev is not None and not prev.processed:
            yield prev
        done = Event(self.sim)
        self.busy[i] = done
        return self.slots[i], done


class GpuProtocol:
    """Base staging protocol bound to one MPI endpoint; its constants are
    MVAPICH2's."""

    #: above this, messages go through the chunked pipeline
    pipeline_threshold = 32 * KiB
    #: pipeline chunk (vbuf) size
    chunk_size = 256 * KiB
    #: extra per-message protocol bookkeeping on the host
    protocol_overhead = us(1.0)

    def __init__(self, ep):
        self.ep = ep
        self.sim = ep.sim
        self.runtime = ep.node.runtime
        # ONE stream for everything — the implicit-synchronization caveat.
        self.stream = CudaStream(self.sim, f"mpi{ep.rank}.gpustream")
        # Small-message vbuf pools: concurrent small sends/recvs each hold a
        # slot until their request completes (a single shared bounce would
        # be corrupted by overlapping operations).
        self._small_send = _VbufPool(ep, self.pipeline_threshold, 8)
        self._small_recv = _VbufPool(ep, self.pipeline_threshold, 8)

    # -- helpers -----------------------------------------------------------

    def _async_copy(self, dst: int, src: int, nbytes: int) -> Event:
        """Enqueue a copy on the shared stream; returns its completion."""
        return self.stream.enqueue(
            lambda: memcpy_device_work(self.runtime, dst, src, nbytes)
        )

    # -- send ----------------------------------------------------------------

    def send(self, dst: int, addr: int, nbytes: int, tag: Any, req):
        """Generator: stage a device buffer out and send it."""
        yield self.sim.timeout(self.protocol_overhead)
        if nbytes <= self.pipeline_threshold:
            # Blocking staging copy (the ~10 us cudaMemcpy cost).
            slot, release = yield from self._small_send.acquire()
            yield from memcpy_sync(self.runtime, slot, addr, nbytes)
            yield from self.ep._host_isend(dst, slot, nbytes, tag, req)
            req.done.callbacks.append(lambda _e: release.succeed())
            return
        # Chunked pipeline through double vbufs on the single stream.
        # Vbufs are per-invocation: concurrent pipelines must not share.
        vbufs = self.runtime.host_alloc(2 * self.chunk_size)
        chunks = fragment_message(nbytes, self.chunk_size)
        sub_done: list[Event] = []

        def pipeline():
            for i, (off, csize) in enumerate(chunks):
                # Double buffering: chunk i reuses chunk i-2's vbuf, which
                # must have been fully pulled by the HCA first.
                if i >= 2 and not sub_done[i - 2].processed:
                    yield sub_done[i - 2]
                vbuf = vbufs.addr + (i % 2) * self.chunk_size
                copy_ev = self._async_copy(vbuf, addr + off, csize)
                yield copy_ev
                sub = type(req)("send", dst, (tag, "_c", i), csize, done=Event(self.sim))
                sub_done.append(sub.done)
                yield from self.ep._host_isend(dst, vbuf, csize, (tag, "_c", i), sub)
            yield self.sim.all_of([e for e in sub_done if not e.processed])
            req.done.succeed(req)

        self.sim.process(pipeline(), name=f"mpi{self.ep.rank}.gpusend")

    # -- recv ----------------------------------------------------------------

    def recv(self, src: int, addr: int, nbytes: int, tag: Any, req):
        """Generator: receive into a device buffer through host vbufs."""
        yield self.sim.timeout(self.protocol_overhead)
        if nbytes <= self.pipeline_threshold:
            slot, release = yield from self._small_recv.acquire()
            inner = type(req)("recv", src, tag, nbytes, done=Event(self.sim))
            yield from self.ep._host_irecv(src, slot, nbytes, tag, inner)

            def finish():
                yield inner.done
                # Async H2D + event synchronization (cheaper than a fully
                # synchronous cudaMemcpy, which is why MVAPICH2's receive
                # side costs less than its send side).
                yield self.sim.timeout(self.runtime.costs.async_enqueue_cost)
                yield self._async_copy(addr, slot, nbytes)
                yield self.sim.timeout(self.runtime.costs.sync_call_cost)
                req.done.succeed(req)
                release.succeed()

            self.sim.process(finish(), name=f"mpi{self.ep.rank}.gpurecv")
            return
        vbufs = self.runtime.host_alloc(2 * self.chunk_size)
        chunks = fragment_message(nbytes, self.chunk_size)

        def pipeline():
            copies: list[Event] = []
            for i, (off, csize) in enumerate(chunks):
                # The vbuf being reused must have been drained to the GPU.
                if i >= 2 and not copies[i - 2].processed:
                    yield copies[i - 2]
                vbuf = vbufs.addr + (i % 2) * self.chunk_size
                inner = type(req)("recv", src, (tag, "_c", i), csize, done=Event(self.sim))
                yield from self.ep._host_irecv(src, vbuf, csize, (tag, "_c", i), inner)
                yield inner.done
                copies.append(self._async_copy(addr + off, vbuf, csize))
            pend = [e for e in copies if not e.processed]
            if pend:
                yield self.sim.all_of(pend)
            req.done.succeed(req)

        self.sim.process(pipeline(), name=f"mpi{self.ep.rank}.gpurecv")


class MVAPICH2Protocol(GpuProtocol):
    """MVAPICH2 1.9a2 (the paper's IB reference stack): the base constants."""


class OpenMPIProtocol(GpuProtocol):
    """CUDA-aware OpenMPI: same structure, slightly laxer constants."""

    pipeline_threshold = 64 * KiB
    chunk_size = 128 * KiB
    protocol_overhead = us(1.4)
