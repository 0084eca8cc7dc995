"""Edge-case tests for the CUDA layer: costs, failures, unmaterialized data."""

import pytest

from repro.cuda import CudaCosts, CudaRuntime, CudaStream, memcpy_sync
from repro.gpu import FERMI_2050, GPUDevice
from repro.pcie import LinkParams, plx_platform
from repro.sim import Simulator
from repro.units import us


def build(costs=None):
    sim = Simulator()
    plat = plx_platform(sim)
    gpu = GPUDevice(sim, "gpu0", FERMI_2050)
    plat.attach(gpu, "gpu", LinkParams(gen=2, lanes=16))
    rt = CudaRuntime(sim, plat, gpu, costs=costs) if costs else CudaRuntime(sim, plat, gpu)
    return sim, rt


def test_custom_costs_respected():
    costs = CudaCosts(sync_memcpy_overhead=us(25))
    sim, rt = build(costs)
    h = rt.host_alloc(256)
    d = rt.gpu.alloc(256)

    def proc():
        t0 = sim.now
        yield from memcpy_sync(rt, h.addr, d.addr, 64)
        return sim.now - t0

    assert sim.run_process(proc()) >= us(25)


def test_memcpy_rejects_nonpositive():
    sim, rt = build()
    h = rt.host_alloc(64)
    d = rt.gpu.alloc(64)
    from repro.cuda.memcpy import memcpy_device_work

    with pytest.raises(ValueError):
        memcpy_device_work(rt, h.addr, d.addr, 0)


def test_memcpy_without_materialized_data_is_timing_only():
    sim, rt = build()
    h = rt.host_alloc(4096)
    d = rt.gpu.alloc(4096)

    def proc():
        yield from memcpy_sync(rt, h.addr, d.addr, 4096)

    sim.run_process(proc())
    # Neither side was ever materialized: pure timing, no arrays built.
    assert h._data is None
    assert d._data is None


def test_stream_op_failure_propagates_to_waiter():
    sim, rt = build()
    stream = CudaStream(sim)

    def bad_thunk():
        raise RuntimeError("kernel launch failure")

    def proc():
        done = stream.enqueue(bad_thunk)
        try:
            yield done
        except RuntimeError as exc:
            return str(exc)

    assert sim.run_process(proc()) == "kernel launch failure"
    # The stream survives and keeps processing.

    def proc2():
        yield stream.enqueue(lambda: sim.timeout(10))
        return sim.now

    assert sim.run_process(proc2()) > 0


def test_default_costs_snapshot():
    """The documented calibration constants (paper §V.C)."""
    c = CudaCosts()
    assert c.sync_memcpy_overhead == us(10)
    assert c.async_enqueue_cost < c.sync_memcpy_overhead / 5
