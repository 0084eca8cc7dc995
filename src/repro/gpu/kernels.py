"""GPU kernel execution timing model.

Kernels are timed, not emulated: the *effects* of application kernels are
computed for real in NumPy by the app layer, while this engine accounts for
how long the GPU is busy.  One :class:`ComputeEngine` per GPU serializes
kernels (Fermi-era concurrent-kernel support was limited and the paper's
applications never rely on it); CUDA-stream ordering on top of the engine
is handled by :mod:`repro.cuda.stream`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Process, Resource, Simulator
from ..units import us

__all__ = ["KernelLaunch", "ComputeEngine", "KERNEL_LAUNCH_OVERHEAD"]

# Host-side launch overhead of a kernel (driver + PCIe doorbell), ~Fermi era.
KERNEL_LAUNCH_OVERHEAD = us(5.0)


@dataclass
class KernelLaunch:
    """One kernel invocation: a name and a modelled duration."""

    name: str
    duration: float  # ns of GPU busy time

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("negative kernel duration")


class ComputeEngine:
    """Execution resource for one GPU's SM array."""

    def __init__(self, sim: Simulator, gpu_name: str = "gpu"):
        self.sim = sim
        self.gpu_name = gpu_name
        self._busy = Resource(sim, 1, f"{gpu_name}.sm")

    def execute(self, kernel: KernelLaunch) -> Process:
        """Run *kernel*; the returned process completes with the kernel
        when the GPU finishes it."""
        return self.sim.process(
            self._run(kernel), name=f"{self.gpu_name}.k:{kernel.name}"
        )

    def _run(self, kernel: KernelLaunch):
        yield self._busy.acquire()
        try:
            yield self.sim.timeout(kernel.duration)
        finally:
            self._busy.release()
        return kernel
