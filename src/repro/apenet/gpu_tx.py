"""GPU_P2P_TX: the GPU-memory-read engine, in its three generations.

This block was "by far the most difficult task to achieve, requiring two
major redesigns" (§IV).  The engine drives the GPU's mailbox read protocol
(:mod:`repro.gpu.p2p`) and feeds the router's TX FIFO:

* **v1** — read requests generated in software on the Nios II, one
  outstanding ≤4 KB request at a time → ~600 MB/s.
* **v2** — "an hardware acceleration block which generates the read requests
  towards the GPU with a steady rate of one every 80 ns; a pre-fetch logic
  which attempts to hide the response latency" — bounded window (4–32 KB),
  Nios II still pays a per-chunk flow-control cost.
* **v3** — "the new flow-control block is able to pre-fetch an unlimited
  amount of data so as to keep the GPU read request queue full, while at the
  same time back-reacting to almost-full conditions of the different
  on-board temporary buffers": the window spans the on-board buffering and
  outstanding bytes are only retired when a packet clears the TX FIFO, so a
  full FIFO throttles request generation; Nios II involvement is negligible.

The bandwidth curves of Fig 4/5 *emerge* from exactly these mechanisms plus
the GPU-side protocol constants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..gpu.p2p import REQUEST_DESCRIPTOR_BYTES, P2PReadRequest
from ..net.packet import ApePacket
from ..sim import Event, Simulator, Store
from .config import GpuTxVersion
from .jobs import TxJob

__all__ = ["GpuTxEngine"]


@dataclass
class _Chunk:
    """One in-flight GPU read chunk.

    ``injected`` fires once the chunk's packet is in the TX FIFO; it is
    ``None`` where the engine never waits on it (v3's chunks but the
    last).
    """

    job: TxJob
    offset: int
    nbytes: int
    last: bool
    injected: Optional[Event] = None


class GpuTxEngine:
    """Reads GPU buffers through the P2P protocol and injects packets."""

    def __init__(self, sim: Simulator, card: Any):
        self.sim = sim
        self.card = card
        self.jobs: Store = Store(sim, name=f"{card.name}.gtx.jobs")
        self.pending: deque[_Chunk] = deque()
        self.outstanding = 0
        self._window_waiters: list[Event] = []
        sim.process(self._loop(), name=f"{card.name}.gtx")

    def enqueue(self, job: TxJob) -> None:
        """Accept a job from the descriptor queue."""
        self.jobs.put(job)

    # ------------------------------------------------------------------
    # Request generation
    # ------------------------------------------------------------------

    def _loop(self):
        cfg = self.card.config
        mailbox = self.card.gpu.mailbox_window.base
        while True:
            job: TxJob = yield self.jobs.get()
            if cfg.gpu_tx_method == "bar1":
                yield from self._run_job_bar1(job)
                continue
            obs = self.sim._obs
            span = None
            if obs is not None:
                span = obs.span(
                    "apenet",
                    "gpu_tx",
                    nbytes=job.message.total_bytes,
                    version=int(cfg.gpu_tx_version),
                )
            # Per-message engine startup: descriptor fetch, V2P setup — the
            # "overhead which is a substantial part of those 3 µs in the
            # initial delay" of Fig 3.
            yield from self.card.nios.run(cfg.gpu_tx_msg_overhead, "gpu_tx")
            chunk_cost = cfg.gpu_chunk_nios_cost()
            window = cfg.effective_window()
            n = len(job.packets)
            # v2's prefetcher works in window-sized *batches*: it issues
            # read requests for one window's worth of data, waits for the
            # whole burst to land, then refills — so the head latency is
            # paid once per window and Fig 4's bandwidth follows
            # W / (head + W/rate).  v3's flow control is a true sliding
            # window bounded by FIFO credits.
            v2_batch = max(1, window // cfg.gpu_read_chunk)
            batch_tail: Optional[_Chunk] = None
            for i, (offset, nbytes) in enumerate(job.packets):
                if cfg.gpu_tx_version == GpuTxVersion.V2:
                    if batch_tail is not None and i % v2_batch == 0:
                        # Window drained before the refill burst.
                        if not batch_tail.injected.processed:
                            yield batch_tail.injected
                else:
                    while self.outstanding + nbytes > window:
                        ev = Event(self.sim)
                        self._window_waiters.append(ev)
                        yield ev
                if chunk_cost > 0:
                    yield from self.card.nios.run(chunk_cost, "gpu_tx")
                if cfg.gpu_tx_version >= GpuTxVersion.V2:
                    # HW request generator pacing.
                    yield self.sim.timeout(cfg.v2_request_interval)
                if cfg.gpu_tx_version != GpuTxVersion.V2:
                    self.outstanding += nbytes
                last = i == n - 1
                # v3 waits only on the message's last chunk.
                injected = (
                    Event(self.sim)
                    if last or cfg.gpu_tx_version != GpuTxVersion.V3
                    else None
                )
                chunk = _Chunk(job, offset, nbytes, last, injected)
                self.pending.append(chunk)
                batch_tail = chunk
                req = P2PReadRequest(
                    src_addr=job.src_addr + offset,
                    nbytes=nbytes,
                    reply_addr=self.card.gpu_data_window.base,
                )
                self.card.fabric.write(
                    self.card, mailbox, REQUEST_DESCRIPTOR_BYTES, payload=req
                )
                if cfg.gpu_tx_version == GpuTxVersion.V1:
                    # Software engine: strictly one request in flight.
                    yield chunk.injected
                last_chunk = chunk
            # The engine processes one message descriptor at a time: the
            # next job starts only when this message's data has fully
            # traversed the read pipeline into the TX FIFO.
            if not last_chunk.injected.processed:
                yield last_chunk.injected
            # Tear down / re-arm the protocol state before the next
            # descriptor (per-message cost, hidden from the message's own
            # latency but serializing successive GPU-source messages).
            if cfg.gpu_tx_msg_drain > 0:
                yield self.sim.timeout(cfg.gpu_tx_msg_drain)
            if span is not None:
                span.end()

    # ------------------------------------------------------------------
    # BAR1-TX extension (paper conclusions): plain PCIe reads through a
    # BAR1 mapping instead of the two-way mailbox protocol.  On Fermi the
    # 150 MB/s BAR1 read rate makes this hopeless; on Kepler it matches
    # the P2P rate with far simpler hardware.
    # ------------------------------------------------------------------

    def _run_job_bar1(self, job: TxJob):
        from .tx import windowed_read_tx

        cfg = self.card.config
        yield from self.card.nios.run(cfg.gpu_tx_msg_overhead, "gpu_tx")
        bar1_addr = self.card.bar1_tx_maps.get(job.src_buf.addr)
        if bar1_addr is None:
            raise KeyError(
                f"{self.card.name}: BAR1 TX needs a registered mapping for "
                f"0x{job.src_addr:x}"
            )
        bar1_base = bar1_addr + (job.src_addr - job.src_buf.addr)
        # Same continuous-window transmit core as the host path, but the
        # reads target the BAR1 aperture: the GPU's BAR1 behaviour (rate
        # and latency; catastrophic on Fermi, fine on Kepler) throttles.
        yield from windowed_read_tx(
            self.sim,
            self.card,
            job,
            src_addr_of=lambda off: bar1_base + off,
            request_size=cfg.bar1_read_request,
            outstanding=cfg.bar1_read_outstanding,
            limiter=None,
            obs_name="bar1_tx",
        )

    # ------------------------------------------------------------------
    # Response handling (wired to the card's gpu_data window)
    # ------------------------------------------------------------------

    def on_response(self, nbytes: int, data: Optional[np.ndarray]) -> None:
        """GPU pushed one chunk's data back; responses arrive in order."""
        if not self.pending:
            raise RuntimeError(f"{self.card.name}: unexpected GPU TX response")
        chunk = self.pending.popleft()
        if chunk.nbytes != nbytes:
            raise RuntimeError(
                f"{self.card.name}: response size {nbytes} != expected {chunk.nbytes}"
            )
        self.sim.process(self._injector(chunk, data), name=f"{self.card.name}.gtx.inj")

    def _injector(self, chunk: _Chunk, data):
        pkt = ApePacket(
            dst_coord=chunk.job.dst_coord,
            src_coord=chunk.job.src_coord,
            dst_addr=chunk.job.message.dst_addr + chunk.offset,
            nbytes=chunk.nbytes,
            message=chunk.job.message,
            data=data,
        )
        yield self.card.router.inject(pkt)
        cfg = self.card.config
        if cfg.gpu_tx_version != GpuTxVersion.V2:
            # v1/v3 retire credit only when the packet has cleared into the
            # TX FIFO — v3's almost-full feedback (arrow 3 in Fig 2).
            self._retire(chunk.nbytes)
        if chunk.injected is not None:
            chunk.injected.succeed()
        if chunk.last:
            chunk.job.local_done.succeed(chunk.job)

    def _retire(self, nbytes: int) -> None:
        self.outstanding -= nbytes
        if self._window_waiters:
            waiters, self._window_waiters = self._window_waiters, []
            for w in waiters:
                w.succeed()
