"""Additional coverage for the GPU copy engine and the compute engine."""

import pytest

from repro.gpu import FERMI_2050, GPUDevice, KernelLaunch
from repro.obs import TraceSession
from repro.pcie import LinkParams, plx_platform
from repro.sim import Simulator
from repro.units import kib, mib, us


def build():
    sim = Simulator()
    plat = plx_platform(sim)
    gpu = GPUDevice(sim, "gpu0", FERMI_2050)
    plat.attach(gpu, "gpu", LinkParams(gen=2, lanes=16))
    return sim, plat, gpu


def test_d2h_and_h2d_serialize_on_the_one_engine():
    """The model drives one copy engine per GPU (DESIGN.md §7): an H2D
    copy issued beside a D2H one waits for it."""
    sim, plat, gpu = build()
    done = {}

    def d2h():
        yield gpu.dma.device_to_host(0x1000, mib(1))
        done["d2h"] = sim.now

    def h2d():
        yield gpu.dma.host_to_device(0x200000, mib(1))
        done["h2d"] = sim.now

    sim.process(d2h())
    sim.process(h2d())
    sim.run()
    solo = mib(1) / 5.5
    assert done["d2h"] < solo * 1.3
    assert done["h2d"] >= done["d2h"] + mib(1) / 5.7


def test_same_engine_serializes():
    sim, plat, gpu = build()
    ends = []

    def copy(i):
        yield gpu.dma.device_to_host(0x1000 + i * kib(512), kib(512))
        ends.append(sim.now)

    sim.process(copy(0))
    sim.process(copy(1))
    sim.run()
    assert ends[1] >= ends[0] * 1.9  # back to back, not overlapped


def test_compute_engine_utilization():
    """The GPU computes for the kernel's duration: its ``.sm.in_use`` track
    is busy for 30 of the run's 100 us, and the completion carries the
    kernel."""
    session = TraceSession()
    with session.activate():
        sim, plat, gpu = build()

        def proc():
            kernel = yield gpu.compute.execute(KernelLaunch("k", us(30)))
            done_at = sim.now
            yield sim.timeout(us(70))
            return kernel.name, done_at

        assert sim.run_process(proc()) == ("k", us(30))
    assert sim.now == us(100)
    busy = [
        (rec["ts"], rec["value"])
        for rec in session.events
        if rec["ph"] == "C" and rec["name"] == "gpu0.sm.in_use"
    ]
    assert busy == [(0.0, 1.0), (us(30), 0.0)]


def test_kernel_rejects_negative_duration():
    with pytest.raises(ValueError):
        KernelLaunch("bad", -1.0)


def test_dma_byte_counters():
    """Each copy completes with its byte count, and its ``dma_d2h`` or
    ``dma_h2d`` span carries the same bytes."""
    session = TraceSession()
    with session.activate():
        sim, plat, gpu = build()

        def proc():
            d2h = yield gpu.dma.device_to_host(0x1000, kib(64))
            h2d = yield gpu.dma.host_to_device(0x1000, kib(32))
            return d2h, h2d

        assert sim.run_process(proc()) == (kib(64), kib(32))
    spans = [
        (rec["name"], rec["args"]["nbytes"])
        for rec in session.events
        if rec["ph"] == "X" and rec["name"].startswith("dma_")
    ]
    assert spans == [("dma_d2h", kib(64)), ("dma_h2d", kib(32))]
