"""Integration tests: GPU device on a PCIe platform."""

import numpy as np
import pytest

from repro.cuda import CudaRuntime
from repro.cuda.memcpy import memcpy_device_work
from repro.gpu import (
    FERMI_2050,
    GPU_READ_CHUNK,
    KEPLER_K20,
    GPUDevice,
    P2PReadRequest,
)
from repro.pcie import LinkParams, PCIeDevice, ReadBehavior, WriteBehavior, plx_platform
from repro.sim import Simulator
from repro.units import MBps, mib, us


class CaptureNic(PCIeDevice):
    """Tiny NIC stand-in: absorbs writes into a log."""

    def __init__(self, sim, name="nic", base=0x600_0000_0000):
        super().__init__(sim, name)
        self.add_window(base, 1 << 24, "buffers")
        self.base = base
        self.received = []

    def describe_write(self, addr):
        return WriteBehavior(on_write=lambda a, n, p: self.received.append((a, n, p)))

    def describe_read(self, addr):
        return ReadBehavior(latency=200.0)


def build(spec=FERMI_2050):
    sim = Simulator()
    plat = plx_platform(sim)
    gpu = GPUDevice(sim, "gpu0", spec)
    plat.attach(gpu, "gpu", LinkParams(gen=2, lanes=16))
    nic = CaptureNic(sim)
    plat.attach(nic, "nic", LinkParams(gen=2, lanes=8))
    return sim, plat, gpu, nic


def test_windows_do_not_overlap():
    sim, plat, gpu, nic = build()
    assert gpu.gmem_window.limit <= gpu.bar1_window.base
    assert gpu.bar1_window.limit <= gpu.mailbox_window.base


def test_peer_write_lands_in_buffer_with_data():
    sim, plat, gpu, nic = build()
    buf = gpu.alloc(8192)
    payload = np.arange(8192, dtype=np.uint8)  # wraps mod 256, fine

    def proc():
        yield plat.fabric.write(nic, buf.addr, 8192, payload=payload)

    sim.run_process(proc())
    np.testing.assert_array_equal(buf.data, payload)


def test_mailbox_read_protocol_pushes_data_back():
    sim, plat, gpu, nic = build()
    buf = gpu.alloc(4096)
    buf.data[:] = 7
    req = P2PReadRequest(src_addr=buf.addr, nbytes=4096, reply_addr=nic.base)

    def proc():
        yield plat.fabric.write(
            nic, gpu.mailbox_window.base, 64, payload=req
        )
        # Wait for the GPU's pushed response to land.
        while not nic.received:
            yield sim.timeout(us(1))
        return sim.now

    sim.run_process(proc())
    addr, n, data = nic.received[0]
    assert n == 4096
    np.testing.assert_array_equal(np.asarray(data), np.full(4096, 7, dtype=np.uint8))


def test_mailbox_head_latency_observed():
    sim, plat, gpu, nic = build()
    buf = gpu.alloc(4096)
    req = P2PReadRequest(src_addr=buf.addr, nbytes=256, reply_addr=nic.base)
    t_submit = {}

    def proc():
        t_submit["t"] = sim.now
        yield plat.fabric.write(nic, gpu.mailbox_window.base, 64, payload=req)
        while not nic.received:
            yield sim.timeout(100)
        return sim.now - t_submit["t"]

    elapsed = sim.run_process(proc())
    # Must include the 1.8 us protocol head latency.
    assert elapsed >= us(1.8)
    assert elapsed < us(4)


def test_sustained_mailbox_rate_is_spec_limited():
    """Many back-to-back requests: throughput ~= p2p_read_rate (1536 MB/s)."""
    sim, plat, gpu, nic = build()
    total = mib(4)
    buf = gpu.alloc(total)
    n_req = total // GPU_READ_CHUNK

    def proc():
        reqs = [
            P2PReadRequest(
                src_addr=buf.addr + i * GPU_READ_CHUNK,
                nbytes=GPU_READ_CHUNK,
                reply_addr=nic.base,
            )
            for i in range(n_req)
        ]
        t0 = sim.now
        # Post all descriptors up front (unbounded prefetch, v3-style).
        for r in reqs:
            plat.fabric.write(nic, gpu.mailbox_window.base, 64, payload=r)
        while len(nic.received) < n_req:
            yield sim.timeout(us(10))
        return total / (sim.now - t0)

    bw = sim.run_process(proc())
    assert bw == pytest.approx(MBps(1536), rel=0.08)


def test_request_exceeding_chunk_rejected():
    with pytest.raises(ValueError, match="protocol chunk"):
        P2PReadRequest(src_addr=0, nbytes=GPU_READ_CHUNK + 1, reply_addr=0)


def test_bar1_fermi_read_is_slow_kepler_fast():
    def read_bw(spec):
        sim, plat, gpu, nic = build(spec)
        buf = gpu.alloc(mib(1))
        bar1_addr = gpu.bar1.map(buf)

        def proc():
            t0 = sim.now
            yield plat.fabric.read_pipelined(nic, bar1_addr, mib(1), outstanding=8)
            return mib(1) / (sim.now - t0)

        return sim.run_process(proc())

    fermi = read_bw(FERMI_2050)
    kepler = read_bw(KEPLER_K20)
    assert fermi == pytest.approx(MBps(150), rel=0.05)
    assert kepler == pytest.approx(MBps(1600), rel=0.10)
    # Table I: "a more impressive factor 10" Kepler vs Fermi via BAR1.
    assert kepler / fermi > 8


def test_bar1_window_is_read_only():
    """Peers write GPU memory with P2P posted writes; a write into a BAR1
    mapping is refused where the fabric asks the GPU how to absorb it."""
    sim, plat, gpu, nic = build()
    buf = gpu.alloc(4096)
    bar1_addr = gpu.bar1.map(buf)
    with pytest.raises(PermissionError, match="read-only"):
        gpu.describe_write(bar1_addr + 50)
    with pytest.raises(PermissionError, match="read-only"):
        plat.fabric.write(nic, bar1_addr + 50, 100)
    assert buf.read_bytes(buf.addr, 4096) is None


def test_plain_read_of_global_memory_is_refused():
    """A plain PCIe read of global memory is refused: the paper's
    initiators read it with the mailbox protocol (or through BAR1)."""
    sim, plat, gpu, nic = build()
    buf = gpu.alloc(4096)
    with pytest.raises(PermissionError, match="mailbox protocol"):
        gpu.describe_read(buf.addr)
    with pytest.raises(PermissionError, match="mailbox protocol"):
        plat.fabric.read(nic, buf.addr, 256)


def test_mailbox_window_is_write_only():
    sim, plat, gpu, nic = build()
    with pytest.raises(PermissionError):
        gpu.describe_read(gpu.mailbox_window.base)


def test_dma_d2h_rate_and_data():
    sim, plat, gpu, nic = build()
    rt = CudaRuntime(sim, plat, gpu)
    buf = gpu.alloc(mib(1))
    buf.data[:] = 9
    host = rt.host_alloc(mib(1))

    def proc():
        t0 = sim.now
        yield memcpy_device_work(rt, host.addr, buf.addr, mib(1))  # on gpu.dma
        return mib(1) / (sim.now - t0)

    bw = sim.run_process(proc())
    # cudaMemcpy D2H ~5.5 GB/s on Gen2 x16 platforms (engine-limited here).
    assert bw == pytest.approx(5.5, rel=0.15)
    assert host.data.min() == 9


def test_dma_h2d_moves_data():
    sim, plat, gpu, nic = build()
    rt = CudaRuntime(sim, plat, gpu)
    buf = gpu.alloc(65536)
    host = rt.host_alloc(65536)
    host.data[:] = np.arange(65536, dtype=np.uint8)

    def proc():
        # The engine models time only; the copy's bytes move in cudaMemcpy.
        yield gpu.dma.host_to_device(host.addr, 65536)
        assert buf.read_bytes(buf.addr, 65536) is None
        yield memcpy_device_work(rt, buf.addr, host.addr, 65536)

    sim.run_process(proc())
    np.testing.assert_array_equal(buf.data, host.data)


def test_compute_engine_serializes_kernels():
    from repro.gpu import KernelLaunch

    sim, plat, gpu, nic = build()
    ends = []

    def proc(tag):
        kernel = yield gpu.compute.execute(KernelLaunch(tag, us(10)))
        ends.append((kernel.name, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    # Each completion carries its own kernel, the second one 10 us later.
    assert ends == [("a", us(10)), ("b", us(20))]
