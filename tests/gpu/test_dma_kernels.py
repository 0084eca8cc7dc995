"""Additional coverage for GPU DMA engines and the compute engine."""

import pytest

from repro.gpu import FERMI_2050, GPUDevice, KernelLaunch
from repro.pcie import LinkParams, plx_platform
from repro.sim import Simulator
from repro.units import kib, mib, us


def build(two_gpus=False):
    sim = Simulator()
    plat = plx_platform(sim)
    gpus = []
    for i in range(2 if two_gpus else 1):
        gpu = GPUDevice(sim, f"gpu{i}", FERMI_2050, index=i)
        plat.attach(gpu, "gpu", LinkParams(gen=2, lanes=16))
        gpus.append(gpu)
    return sim, plat, gpus


def test_two_copy_engines_overlap():
    """D2H on engine 0 and H2D on engine 1 proceed concurrently."""
    sim, plat, (gpu,) = build()
    done = {}

    def d2h():
        yield gpu.dma_engines[0].device_to_host(0x1000, mib(1))
        done["d2h"] = sim.now

    def h2d():
        yield gpu.dma_engines[1].host_to_device(0x200000, mib(1))
        done["h2d"] = sim.now

    sim.process(d2h())
    sim.process(h2d())
    sim.run()
    solo = mib(1) / 5.5
    # Each finishes near its solo time (directions don't serialize).
    assert done["d2h"] < solo * 1.3
    assert done["h2d"] < solo * 1.3


def test_same_engine_serializes():
    sim, plat, (gpu,) = build()
    ends = []

    def copy(i):
        yield gpu.dma.device_to_host(0x1000 + i * kib(512), kib(512))
        ends.append(sim.now)

    sim.process(copy(0))
    sim.process(copy(1))
    sim.run()
    assert ends[1] >= ends[0] * 1.9  # back to back, not overlapped


def test_compute_engine_utilization():
    sim, plat, (gpu,) = build()

    def proc():
        yield gpu.compute.execute(KernelLaunch("k", us(30)))
        yield sim.timeout(us(70))

    sim.run_process(proc())
    assert gpu.compute.utilization() == pytest.approx(0.3)
    assert gpu.compute.busy_ns == pytest.approx(us(30))


def test_kernel_rejects_negative_duration():
    with pytest.raises(ValueError):
        KernelLaunch("bad", -1.0)


def test_dma_byte_counters():
    sim, plat, (gpu,) = build()

    def proc():
        yield gpu.dma.device_to_host(0x1000, kib(64))
        yield gpu.dma.host_to_device(0x1000, kib(32))

    sim.run_process(proc())
    assert gpu.dma.bytes_d2h == kib(64)
    assert gpu.dma.bytes_h2d == kib(32)
