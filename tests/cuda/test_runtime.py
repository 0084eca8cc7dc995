"""Tests for the CUDA runtime: UVA resolution, allocation, tokens."""

import pytest

from repro.cuda import CudaRuntime
from repro.gpu import FERMI_2050, GPU_PAGE_SIZE, GPUDevice
from repro.pcie import LinkParams, plx_platform
from repro.sim import Simulator
from repro.units import GiB


def build():
    sim = Simulator()
    plat = plx_platform(sim)
    gpu = GPUDevice(sim, "gpu0", FERMI_2050)
    plat.attach(gpu, "gpu", LinkParams(gen=2, lanes=16))
    return sim, plat, CudaRuntime(sim, plat, gpu)


def test_host_alloc_addresses_disjoint():
    sim, plat, rt = build()
    a = rt.host_alloc(5000)
    b = rt.host_alloc(100)
    assert a.end <= b.addr
    assert rt.host_heap.buffer_at(a.addr + 4999) is a
    assert rt.host_heap.buffer_at(b.addr) is b


def test_fresh_heaps_hand_out_addresses_from_their_bases():
    """Host buffers start 4 GiB into DRAM in 4 KB steps; GPU buffers and
    BAR1 windows start at their window bases in 64 KB steps.  These
    addresses set every run's BUF_LIST order and page counts."""
    sim, plat, rt = build()
    host = plat.host_memory.windows[0].base + 4 * GiB
    sizes = [1, 4096, 4097, 1]
    assert [rt.host_alloc(n).addr for n in sizes] == [
        host, host + 4096, host + 2 * 4096, host + 4 * 4096
    ]
    page = GPU_PAGE_SIZE
    sizes = [1, page, page + 1, 1]
    gpu = rt.gpu
    base = gpu.gmem_window.base
    bufs = [gpu.alloc(n) for n in sizes]
    assert [b.addr for b in bufs] == [base, base + page, base + 2 * page, base + 4 * page]
    bar1 = gpu.bar1_window.base
    assert [gpu.bar1.map(b) for b in bufs] == [
        bar1, bar1 + page, bar1 + 2 * page, bar1 + 4 * page
    ]


def test_host_alloc_rejects_nonpositive():
    sim, plat, rt = build()
    with pytest.raises(ValueError):
        rt.host_alloc(0)


def test_pointer_attributes_host():
    """An interior pointer into pinned host memory resolves to no GPU and
    the host buffer that holds it."""
    sim, plat, rt = build()
    h = rt.host_alloc(4096)
    gpu, buf = rt.locate(h.addr + 100)
    assert gpu is None
    assert buf is h
    assert buf.addr == h.addr


def test_pointer_attributes_device():
    """An interior pointer into device memory resolves to its GPU and the
    device buffer that holds it."""
    sim, plat, rt = build()
    d = rt.gpu.alloc(8192)
    gpu, buf = rt.locate(d.addr + 8000)
    assert gpu is rt.gpu
    assert gpu.name == "gpu0"
    assert buf is d
    assert buf.size == 8192


def test_unknown_pointer_raises():
    sim, plat, rt = build()
    with pytest.raises(KeyError):
        rt.locate(0x7777_7777_7777)


def test_pointer_query_charges_host_time():
    sim, plat, rt = build()
    d = rt.gpu.alloc(4096)

    def proc():
        t0 = sim.now
        gpu, buf = yield from rt.pointer_get_attributes(d.addr)
        return gpu, buf, sim.now - t0

    gpu, buf, elapsed = sim.run_process(proc())
    assert gpu is rt.gpu and buf is d
    assert elapsed == pytest.approx(rt.costs.attribute_query_cost)


def test_host_buffer_data_round_trip():
    import numpy as np

    sim, plat, rt = build()
    h = rt.host_alloc(256)
    h.write_bytes(h.addr + 16, np.arange(10, dtype=np.uint8))
    out = h.read_bytes(h.addr + 16, 10)
    np.testing.assert_array_equal(out, np.arange(10, dtype=np.uint8))
    with pytest.raises(IndexError):
        h.read_bytes(h.addr + 250, 10)
