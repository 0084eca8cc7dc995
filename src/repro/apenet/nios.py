"""The Nios II soft microcontroller: the card's shared firmware CPU.

"These tasks are currently partly implemented in software running on a
micro-controller (Nios II), which is synthesized onto the Stratix IV FPGA"
(§III.B).  "The last column in the table shows that the Nios II
micro-controller is the main performance bottleneck" (§V.B).

Modelled as a single non-preemptive server: RX packet processing and the
software parts of the GPU TX flow control queue here FIFO.  Per-task-kind
busy accounting exposes *why* a configuration is slow (the Fig 5 story:
GPU_P2P_TX v3 frees Nios II cycles that the RX path then uses).
"""

from __future__ import annotations

from collections import defaultdict

from ..sim import Resource, Simulator

__all__ = ["NiosII"]


class NiosII:
    """Firmware CPU with FIFO task service and per-kind accounting."""

    def __init__(self, sim: Simulator, name: str = "nios"):
        self.sim = sim
        self.name = name
        self._cpu = Resource(sim, 1, name)
        self.busy_by_kind: dict[str, float] = defaultdict(float)
        self.tasks_by_kind: dict[str, int] = defaultdict(int)
        # Fault-injection site (stalls / uniform slowdown); attached by the
        # cluster builder, None leaves every task cost untouched.
        self.faults = None

    def run(self, duration: float, kind: str):
        """Generator: occupy the microcontroller for *duration* ns.

        Usage from a process: ``yield from nios.run(cost, "rx")``.
        Zero-duration tasks return immediately without queueing.
        """
        if duration <= 0:
            return
        if self.faults is not None:
            duration = self.faults.nios_inflate(self.name, kind, duration)
        obs = self.sim._obs
        span = None
        if obs is not None:
            # The span covers queueing *and* service, so Fig 5's story —
            # the shared firmware CPU as the bottleneck — shows up as long
            # spans whose service tail is only `duration` ns.
            span = obs.span("apenet", "nios:" + kind, cost=duration)
        yield self._cpu.acquire()
        try:
            yield self.sim.timeout(duration)
            self.busy_by_kind[kind] += duration
            self.tasks_by_kind[kind] += 1
        finally:
            self._cpu.release()
            if span is not None:
                span.end()

    def utilization(self) -> float:
        """Busy fraction of elapsed simulation time."""
        return self._cpu.utilization()
