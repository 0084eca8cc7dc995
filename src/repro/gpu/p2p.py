"""The GPUDirect peer-to-peer *read* protocol engine (GPU side).

Reading GPU memory from a third-party device is "designed around a two-way
protocol between the initiator and the target" (§III.A): the initiator
(e.g. the APEnet+ ``GPU_P2P_TX`` block) posts small *read-request
descriptors* into a GPU mailbox via ordinary PCIe writes; the GPU fetches
the data internally and **pushes** it back to a reply address with posted
writes.  This works around chipset bugs with peer read completions and is
why a NIC can sustain GPU-read traffic at all.

Externally visible constants (paper, Fig 3 / Table I):

* head latency ≈ 1.8 µs from request to first data (Fermi);
* sustained response rate ≈ 1536 MB/s (Fermi), 1600 MB/s (Kepler);
* each descriptor covers up to one 4 KB chunk; descriptor traffic is a
  small fixed-size write (~13% request-side link utilization at full rate).

A descriptor names only an address and a size, as on the hardware: the GPU
reads the bytes from its own heap as it serves the request, and the
response write carries them (``None`` for an untracked buffer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..sim import Channel, Simulator, Store

__all__ = ["P2PReadRequest", "P2PReadEngine", "GPU_READ_CHUNK", "REQUEST_DESCRIPTOR_BYTES"]

# Maximum data covered by one read-request descriptor.
GPU_READ_CHUNK = 4096
# Wire payload of one descriptor write (mailbox + doorbell traffic).
REQUEST_DESCRIPTOR_BYTES = 256


@dataclass
class P2PReadRequest:
    """One mailbox read-request descriptor.

    ``reply_addr`` — fabric address the GPU pushes the data to (e.g. the
    NIC's TX-FIFO window).
    """

    src_addr: int
    nbytes: int
    reply_addr: int

    def __post_init__(self):
        if self.nbytes <= 0:
            raise ValueError("read request needs a positive size")
        if self.nbytes > GPU_READ_CHUNK:
            raise ValueError(
                f"read request of {self.nbytes} exceeds the {GPU_READ_CHUNK}-byte "
                "protocol chunk; the initiator must fragment"
            )


class P2PReadEngine:
    """GPU-side server for mailbox read requests.

    Requests pipeline: each waits the fixed head latency (pipeline depth)
    while :attr:`limiter`, the GPU's internal read path (a zero-latency
    :class:`~repro.sim.channel.Channel`), serializes data production, so
    the sustained rate is ``p2p_read_rate`` and a cold start costs
    ``p2p_read_head_latency`` — exactly the two constants the paper
    measured on the bus analyzer.
    """

    # The response streams onto the bus while the internal fetch proceeds:
    # after the first TLP's worth of data exists, wire time and fetch time
    # overlap (they only serialize for the leading fragment).
    _FIRST_TLP = 256

    def __init__(self, sim: Simulator, gpu: "Any"):
        self.sim = sim
        self.gpu = gpu
        self.head_latency = gpu.spec.p2p_read_head_latency
        self.limiter = Channel(sim, gpu.spec.p2p_read_rate, name=f"{gpu.name}.rd")
        self._queue = Store(sim, name=f"{gpu.name}.p2p-q")
        sim.process(self._server(), name=f"{gpu.name}.p2p")

    def submit(self, req: P2PReadRequest) -> None:
        """Accept one descriptor; the response write pushes the data back."""
        self._queue.put((req, self.sim.now))

    def _server(self):
        """Serial protocol engine: one read-chunk response at a time.

        The fixed head latency is measured from request arrival but
        pipelines across back-to-back requests, so a cold request pays the
        full 1.8 µs while a saturated stream runs at the sustained rate.
        """
        while True:
            req, t_submit = yield self._queue.get()
            ready = t_submit + self.head_latency
            if ready > self.sim.now:
                yield self.sim.timeout(ready - self.sim.now)
            head = min(self._FIRST_TLP, req.nbytes)
            yield self.limiter.transfer(head)
            rest_ev = (
                self.limiter.transfer(req.nbytes - head)
                if req.nbytes > head
                else None
            )
            payload = self.gpu.heap.buffer_at(req.src_addr).read_bytes(
                req.src_addr, req.nbytes
            )
            # Push the data to the initiator with a posted write; the wire
            # time overlaps the remaining internal fetch.
            write_ev = self.gpu.fabric.write(
                self.gpu, req.reply_addr, req.nbytes, payload=payload
            )
            if rest_ev is not None:
                yield self.sim.all_of([rest_ev, write_ev])
            else:
                yield write_ev
            obs = self.sim._obs
            if obs is not None:
                # Retroactive span from mailbox submission to response done:
                # the Fig 3 "GPU read" phase, head latency included.
                obs.span_at(
                    "gpu", "p2p_read", t_submit, self.sim.now, nbytes=req.nbytes
                )
