"""The APEnet+ kernel device driver model (host side).

The driver "implements the message fragmentation and pushes transaction
descriptors with validated and translated physical memory addresses"
(§III.B).  Host CPU time is charged per message and per fragment; the
descriptor burst then crosses PCIe into the card's register window, whose
write hook dispatches the job to the right TX engine.

Descriptor-ring backpressure: a PUT blocks while all ``tx_queue_slots``
are held by in-flight messages (this is what keeps "the transmission queue
constantly full" in the paper's bandwidth test, §V.B).
"""

from __future__ import annotations

from typing import Any

from ..sim import Resource, Simulator
from .jobs import TxJob

__all__ = ["ApenetDriver"]


class ApenetDriver:
    """Per-node kernel driver instance."""

    def __init__(self, sim: Simulator, card: Any, host_initiator: Any):
        self.sim = sim
        self.card = card
        # PCIe transactions from the CPU are initiated by the host side of
        # the fabric (the memory/root complex device).
        self.host = host_initiator
        self.tx_slots = Resource(sim, card.config.tx_queue_slots, f"{card.name}.txq")

    def submit(self, job: TxJob):
        """Generator: charge host CPU costs and post the descriptors.

        Returns when the card has accepted the descriptor burst; the
        caller's completion signal is ``job.local_done``.
        """
        cfg = self.card.config
        yield self.tx_slots.acquire()
        job.local_done.callbacks.append(lambda _ev: self.tx_slots.release())
        # Host CPU: fragmentation + the first ring batch of descriptors.
        # The rest of a long message's descriptors are built while the
        # engine is already transmitting (ring refill), overlapped with the
        # card's DMA, so only the leading batch delays the first byte.
        first_batch = min(len(job.packets), 8)
        yield self.sim.timeout(
            cfg.driver_fragment_cost + first_batch * cfg.driver_descriptor_cost
        )
        # Post the descriptor burst (bounded by the ring size per write).
        burst = min(
            job.descriptor_bytes, cfg.tx_queue_slots * cfg.descriptor_write_bytes
        )
        yield self.card.fabric.write(
            self.host, self.card.regs_window.base, burst, payload=job
        )
