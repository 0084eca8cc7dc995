"""The Nios II soft microcontroller: the card's shared firmware CPU.

"These tasks are currently partly implemented in software running on a
micro-controller (Nios II), which is synthesized onto the Stratix IV FPGA"
(§III.B).  "The last column in the table shows that the Nios II
micro-controller is the main performance bottleneck" (§V.B).

Modelled as a single non-preemptive server: RX packet processing and the
software parts of the GPU TX flow control queue here FIFO.  Per-kind busy
time, which shows *why* a configuration is slow (the Fig 5 story:
GPU_P2P_TX v3 frees Nios II cycles that the RX path then uses), is the
``cost`` of the ``nios:<kind>`` spans a :class:`~repro.obs.TraceSession`
records; the model keeps no tally of its own.
"""

from __future__ import annotations

from ..sim import Resource, Simulator

__all__ = ["NiosII"]


class NiosII:
    """Firmware CPU with FIFO task service."""

    def __init__(self, sim: Simulator, name: str = "nios"):
        self.sim = sim
        self.name = name
        self._cpu = Resource(sim, 1, name)
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
        finally:
            self._cpu.release()
            if span is not None:
                span.end()
