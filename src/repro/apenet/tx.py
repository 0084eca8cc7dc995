"""Descriptor-driven DMA-read transmit paths.

:func:`windowed_read_tx` is the shared engine core: a continuous window of
MRRS-sized PCIe reads pulls the source into a staging FIFO bounded by the
32 KB TX buffer, while a packetizer drains it into the router.  Keeping the
read window open *across* packet boundaries is what sustains the measured
2.4 GB/s host-read rate (Table I) despite the ~1.4 µs read round-trip.

Users:

* :class:`HostTxEngine` — the host-memory path ("completely handled by the
  kernel driver", §IV): engine ceiling 2.4 GB/s, reads of host DRAM;
* the BAR1-TX extension in :mod:`repro.apenet.gpu_tx` — same mechanics,
  reads aimed at a GPU BAR1 aperture (the GPU's BAR1 rate throttles).

The packetizer takes each packet's bytes from the job's source buffer when
it builds the packet, after the reads that cover it have landed: by local
completion every byte has been read, so the source may then be reused.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from ..net.packet import ApePacket
from ..sim import ByteFifo, Channel, Event, Simulator, Store
from .jobs import TxJob

__all__ = ["HostTxEngine", "windowed_read_tx"]


def windowed_read_tx(
    sim: Simulator,
    card: Any,
    job: TxJob,
    src_addr_of: Callable[[int], int],
    request_size: int,
    outstanding: int,
    limiter: Optional[Channel] = None,
    obs_name: str = "host_tx",
):
    """Generator: transmit *job* with pipelined reads + packetization.

    ``src_addr_of(offset)`` maps a message offset to the fabric address to
    read.  Returns when the job's last packet has been injected.
    *obs_name* labels the per-job trace span ("host_tx" for the kernel
    driver path, "bar1_tx" for the BAR1 variant).
    """
    cfg = card.config
    obs = sim._obs
    span = None
    if obs is not None:
        span = obs.span("apenet", obs_name, nbytes=job.message.total_bytes)
    staging = ByteFifo(sim, cfg.tx_fifo_bytes, f"{card.name}.tx.stage")
    state = {"reserved": 0}
    space_waiters: list[Event] = []

    def free_space(nbytes: int) -> None:
        state["reserved"] -= nbytes
        if space_waiters:
            waiters = space_waiters[:]
            space_waiters.clear()
            for w in waiters:
                w.succeed()

    def packetizer():
        for offset, nbytes in job.packets:
            yield staging.get(nbytes)
            data = job.src_buf.read_bytes(job.src_addr + offset, nbytes)
            pkt = ApePacket(
                dst_coord=job.dst_coord,
                src_coord=job.src_coord,
                dst_addr=job.message.dst_addr + offset,
                nbytes=nbytes,
                message=job.message,
                data=data,
            )
            yield card.router.inject(pkt)
            free_space(nbytes)
        job.local_done.succeed(job)

    packetizing = sim.process(packetizer(), name=f"{card.name}.tx.pkt")

    total = job.message.total_bytes
    in_flight: deque[Event] = deque()
    off = 0
    while off < total:
        csize = min(request_size, total - off)
        while state["reserved"] + csize > cfg.tx_fifo_bytes:
            ev = Event(sim)
            space_waiters.append(ev)
            yield ev
        while in_flight and in_flight[0].processed:
            in_flight.popleft()
        while len(in_flight) >= outstanding:
            yield in_flight.popleft()
        if limiter is not None:
            # Engine ceiling paces request issue.
            yield limiter.transfer(csize)
        state["reserved"] += csize
        ev = card.fabric.read(card, src_addr_of(off), csize)
        # The reservation above guarantees the room: fill, not put.
        ev.callbacks.append(lambda _e, n=csize: staging.fill(n))
        in_flight.append(ev)
        off += csize
    yield packetizing
    if span is not None:
        span.end()


class HostTxEngine:
    """Pulls host-buffer messages into the network."""

    def __init__(self, sim: Simulator, card: Any):
        self.sim = sim
        self.card = card
        cfg = card.config
        self.jobs: Store = Store(sim, name=f"{card.name}.htx.jobs")
        self.limiter = Channel(sim, cfg.host_read_rate, name=f"{card.name}.htx.rd")
        sim.process(self._loop(), name=f"{card.name}.htx")

    def enqueue(self, job: TxJob) -> None:
        """Accept a job from the descriptor queue (card regs write)."""
        self.jobs.put(job)

    def _loop(self):
        cfg = self.card.config
        while True:
            job: TxJob = yield self.jobs.get()
            yield from windowed_read_tx(
                self.sim,
                self.card,
                job,
                src_addr_of=lambda off, base=job.src_addr: base + off,
                request_size=cfg.host_read_request,
                outstanding=cfg.host_read_outstanding,
                limiter=self.limiter,
            )
