"""Tests for memcpy paths and CUDA stream semantics."""

import numpy as np
import pytest

from repro.cuda import CudaRuntime, CudaStream, memcpy_async, memcpy_sync
from repro.gpu import FERMI_2050, GPUDevice, KernelLaunch
from repro.pcie import LinkParams, plx_platform
from repro.sim import Simulator
from repro.units import mib, us


def build():
    sim = Simulator()
    plat = plx_platform(sim)
    gpu = GPUDevice(sim, "gpu0", FERMI_2050)
    plat.attach(gpu, "gpu", LinkParams(gen=2, lanes=16))
    return sim, plat, CudaRuntime(sim, plat, gpu)


# ---------------------------------------------------------------------------
# Synchronous copies
# ---------------------------------------------------------------------------


def test_sync_small_copy_costs_ten_microseconds():
    sim, plat, rt = build()
    h = rt.host_alloc(4096)
    d = rt.gpu.alloc(4096)

    def proc():
        t0 = sim.now
        yield from memcpy_sync(rt, h.addr, d.addr, 64)
        return sim.now - t0

    elapsed = sim.run_process(proc())
    # Small copy is dominated by the 10 us sync overhead (paper §V.C).
    assert us(10) <= elapsed <= us(12)


def test_sync_large_copy_approaches_dma_rate():
    sim, plat, rt = build()
    h = rt.host_alloc(mib(4))
    d = rt.gpu.alloc(mib(4))

    def proc():
        t0 = sim.now
        yield from memcpy_sync(rt, h.addr, d.addr, mib(4))
        return mib(4) / (sim.now - t0)

    bw = sim.run_process(proc())
    assert bw == pytest.approx(5.5, rel=0.15)  # D2H engine rate


def test_sync_copy_moves_real_data_d2h_h2d():
    sim, plat, rt = build()
    h = rt.host_alloc(1024)
    d = rt.gpu.alloc(1024)
    d.data[:] = np.arange(1024, dtype=np.uint8) % 251

    def proc():
        yield from memcpy_sync(rt, h.addr, d.addr, 1024)  # D2H
        h.data[0] += 1  # mutate, then push back
        yield from memcpy_sync(rt, d.addr, h.addr, 1024)  # H2D

    sim.run_process(proc())
    assert d.data[0] == 1
    np.testing.assert_array_equal(d.data[1:], np.arange(1, 1024, dtype=np.uint8) % 251)


@pytest.mark.parametrize("direction", ["d2h", "h2d"])
def test_copy_past_a_buffer_is_refused_before_any_dma(direction):
    """A copy larger than its device or host buffer raises ValueError at
    the call, before the copy engine spends any simulated time on it."""
    sim, plat, rt = build()
    d = rt.gpu.alloc(4096)
    h = rt.host_alloc(mib(1))
    dst, src = (h, d) if direction == "d2h" else (d, h)

    def proc():
        yield from memcpy_sync(rt, dst.addr, src.addr, mib(1))

    with pytest.raises(ValueError, match="overruns"):
        sim.run_process(proc())
    assert sim.now == rt.costs.sync_memcpy_overhead
    assert dst.read_bytes(dst.addr, 16) is None


def test_d2d_same_gpu_copy():
    """A cudaMemcpy within one GPU is refused: only D2H and H2D run."""
    sim, plat, rt = build()
    a = rt.gpu.alloc(4096)
    b = rt.gpu.alloc(4096)
    a.data[:] = 5

    def proc():
        yield from memcpy_sync(rt, b.addr, a.addr, 4096)

    with pytest.raises(ValueError, match="within one GPU"):
        sim.run_process(proc())
    assert b.data.max() == 0


def test_h2h_copy():
    """A cudaMemcpy between two host buffers is refused: only D2H and H2D
    run."""
    sim, plat, rt = build()
    a = rt.host_alloc(512)
    b = rt.host_alloc(512)
    a.data[:] = 3

    def proc():
        yield from memcpy_sync(rt, b.addr, a.addr, 512)

    with pytest.raises(ValueError, match="between two host buffers"):
        sim.run_process(proc())
    assert b.data.max() == 0


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


def test_async_enqueue_is_cheap_for_host():
    sim, plat, rt = build()
    h = rt.host_alloc(mib(1))
    d = rt.gpu.alloc(mib(1))
    stream = CudaStream(sim, "s0")

    def proc():
        t0 = sim.now
        ev = yield from memcpy_async(rt, h.addr, d.addr, mib(1), stream)
        host_cost = sim.now - t0
        yield ev
        total = sim.now - t0
        return host_cost, total

    host_cost, total = sim.run_process(proc())
    assert host_cost == pytest.approx(rt.costs.async_enqueue_cost)
    assert total > us(100)  # the 1 MiB transfer takes real time


def test_stream_serializes_in_order():
    sim, plat, rt = build()
    stream = CudaStream(sim)
    order = []

    def op(tag, dur):
        def thunk():
            ev = sim.timeout(dur)
            ev.callbacks.append(lambda _: order.append((tag, sim.now)))
            return ev

        return thunk

    def proc():
        stream.enqueue(op("a", us(5)))
        stream.enqueue(op("b", us(1)))
        done = stream.enqueue(op("c", us(1)))
        yield done

    sim.run_process(proc())
    assert [t for t, _ in order] == ["a", "b", "c"]
    # b starts only after a finishes.
    assert order[1][1] == pytest.approx(us(6))


def test_two_streams_overlap():
    sim, plat, rt = build()
    s1 = CudaStream(sim, "s1")
    s2 = CudaStream(sim, "s2")

    def proc():
        e1 = s1.enqueue(lambda: sim.timeout(us(10)))
        e2 = s2.enqueue(lambda: sim.timeout(us(10)))
        yield sim.all_of([e1, e2])
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(us(10))


def test_kernel_and_copy_overlap_on_distinct_streams():
    """The overlap pattern the paper's HSG code uses: boundary kernel on one
    stream while the bulk kernel runs on another."""
    sim, plat, rt = build()
    gpu = rt.gpu
    s_bulk = CudaStream(sim, "bulk")
    s_bnd = CudaStream(sim, "boundary")

    def proc():
        e1 = s_bulk.enqueue(lambda: gpu.compute.execute(KernelLaunch("bulk", us(100))))
        e2 = s_bnd.enqueue(lambda: gpu.compute.execute(KernelLaunch("bnd", us(10))))
        yield sim.all_of([e1, e2])
        return sim.now

    # The single compute engine serializes the kernels (Fermi behaviour),
    # so total is 110us, but both were queued concurrently without host sync.
    assert sim.run_process(proc()) == pytest.approx(us(110))
