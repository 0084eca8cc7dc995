"""Tests for platform topologies and the bus analyzer."""

import pytest

from repro.gpu import FERMI_2050, GPUDevice
from repro.pcie import (
    BusAnalyzer,
    LinkParams,
    TlpKind,
    plx_platform,
    westmere_platform,
)
from repro.sim import Simulator
from repro.units import kib


def attach_gpu_nic(plat):
    sim = plat.sim
    gpu = GPUDevice(sim, "gpu0", FERMI_2050)
    plat.attach(gpu, "gpu", LinkParams(gen=2, lanes=16))

    from repro.pcie import PCIeDevice, ReadBehavior, WriteBehavior

    class Nic(PCIeDevice):
        def __init__(self):
            super().__init__(sim, "nic0")
            self.add_window(0x600_0000_0000, 1 << 20, "b")

        def describe_write(self, addr):
            return WriteBehavior()

        def describe_read(self, addr):
            return ReadBehavior(latency=100.0)

    nic = Nic()
    plat.attach(nic, "nic", LinkParams(gen=2, lanes=8))
    return gpu, nic


def peer_write_time(plat, gpu, nic, nbytes=kib(4)):
    sim = plat.sim

    def proc():
        t0 = sim.now
        yield plat.fabric.write(nic, gpu.gmem_window.base, nbytes)
        return sim.now - t0

    return sim.run_process(proc())


def test_platform_slots_exist():
    for builder, slots in (
        (plx_platform, {"gpu", "nic", "root"}),
        (westmere_platform, {"gpu", "nic", "root"}),
    ):
        plat = builder(Simulator())
        assert slots <= set(plat.slots)


def test_unknown_slot_raises():
    plat = plx_platform(Simulator())
    gpu = GPUDevice(plat.sim, "g", FERMI_2050)
    with pytest.raises(KeyError, match="unknown slot"):
        plat.attach(gpu, "floppy")


def test_peer_latency_ordering_plx_westmere():
    """The paper's §III.A platform story: a PLX switch beats the chipset."""
    times = {}
    for name, builder in (("plx", plx_platform), ("westmere", westmere_platform)):
        plat = builder(Simulator())
        gpu, nic = attach_gpu_nic(plat)
        times[name] = peer_write_time(plat, gpu, nic)
    assert times["plx"] < times["westmere"]


def test_analyzer_windows_and_payload_totals():
    sim = Simulator()
    plat = plx_platform(sim)
    gpu, nic = attach_gpu_nic(plat)
    an = BusAnalyzer(sim)
    an.attach(plat.fabric.link_of("gpu0"))

    def proc():
        yield plat.fabric.write(nic, gpu.gmem_window.base, kib(8))
        yield plat.fabric.read_pipelined(nic, gpu.bar1_window.base, kib(2), outstanding=2)

    # Map something into BAR1 so reads resolve.
    buf = gpu.alloc(kib(2))
    gpu.bar1.map(buf)
    sim.run_process(proc())
    times = [r.time for r in an.records]
    assert times == sorted(times)

    def payload(kind):
        return sum(r.payload_bytes for r in an.records if r.kind == kind)

    assert payload(TlpKind.MEM_WRITE) == kib(8)
    assert payload(TlpKind.COMPLETION) == kib(2)
    reads = [r for r in an.records if r.kind == TlpKind.MEM_READ]
    assert len(reads) == 4  # 2 KiB at 512 B MRRS
