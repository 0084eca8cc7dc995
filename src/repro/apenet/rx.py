"""RX RDMA processing: the Nios II's main job and the card's bottleneck.

Per inbound packet the firmware (§IV):

1. scans the BUF_LIST to validate the destination buffer (linear in the
   number of registered buffers),
2. walks the V2P table (constant time, 4 levels),
3. builds the write descriptor (fixed overhead) — together ≈3 µs per 4 KB
   packet ("1.2 GB/s for 4 KB packets"),
4. for GPU destinations, moves the P2P write window when needed (the ~10%
   penalty of Fig 6's H-G curve),

then hands the packet to the PCIe write DMA, which proceeds while the
Nios II starts on the next packet.  When a message's last byte lands, a
completion event is posted to the host event queue.
"""

from __future__ import annotations

from typing import Any

from ..net.packet import ApePacket
from ..sim import Event, PacketFifo, Simulator
from .buflist import BufferKind

__all__ = ["RxEngine", "RxCompletion"]


class RxCompletion:
    """Record delivered to the receiving host's event queue."""

    __slots__ = ("msg_id", "src_rank", "dst_addr", "nbytes", "tag", "time")

    def __init__(self, msg_id, src_rank, dst_addr, nbytes, tag, time):
        self.msg_id = msg_id
        self.src_rank = src_rank
        self.dst_addr = dst_addr
        self.nbytes = nbytes
        self.tag = tag
        self.time = time

    def __repr__(self) -> str:  # pragma: no cover
        return f"RxCompletion(msg={self.msg_id}, n={self.nbytes}, tag={self.tag!r})"


class RxEngine:
    """Extraction-port packet processing."""

    def __init__(self, sim: Simulator, card: Any):
        self.sim = sim
        self.card = card
        self.fifo = PacketFifo(sim, card.config.rx_fifo_bytes, f"{card.name}.rxfifo")
        self._msg_bytes: dict[int, int] = {}
        sim.process(self._loop(), name=f"{card.name}.rx")

    def admit(self, pkt: ApePacket) -> Event:
        """Router extraction port: may backpressure when the FIFO is full."""
        return self.fifo.put(pkt)

    def _loop(self):
        cfg = self.card.config
        while True:
            pkt: ApePacket = yield self.fifo.get()
            obs = self.sim._obs
            span = None
            if obs is not None:
                span = obs.span("apenet", "rx", nbytes=pkt.nbytes)
            entry, visited = self.card.buflist.lookup(pkt.dst_addr, pkt.nbytes)
            if cfg.rx_hw_accel:
                # Future-work hardware blocks: constant-time CAM lookup and
                # hardware V2P — no linear scan, far less Nios II time.
                cost = (
                    cfg.rx_hw_lookup_cost
                    + cfg.rx_hw_v2p_cost
                    + cfg.rx_hw_packet_overhead
                )
            else:
                cost = (
                    cfg.rx_buflist_base
                    + visited * cfg.rx_buflist_per_entry
                    + cfg.rx_v2p_cost
                    + cfg.rx_packet_overhead
                )
            if entry is not None and entry.kind is BufferKind.GPU:
                cost += cfg.rx_gpu_window_switch
            yield from self.card.nios.run(cost, "rx")
            if span is not None:
                span.end()
            if entry is None:
                # Buffer validation failed: the firmware drops the packet.
                if obs is not None:
                    obs.instant("apenet", "rx_drop", nbytes=pkt.nbytes)
                continue
            # Hand off to the write DMA; the Nios II moves on.
            self.sim.process(self._writer(pkt), name=f"{self.card.name}.rx.wr")

    def _is_replayed_fragment(self, pkt: ApePacket) -> bool:
        """True for fragments of an already-delivered reliable PUT.

        The idempotence guarantee of ``reliable_put`` is enforced here, at
        the DMA boundary: a replay of a message the endpoint has already
        delivered must not touch the destination (GPU) buffer again — the
        application may have started computing on it.
        """
        endpoint = self.card.endpoint
        if endpoint is None:
            return False
        tag = pkt.message.tag
        if not (isinstance(tag, tuple) and len(tag) == 4 and tag[0] == "__rput__"):
            return False
        return tag[2] in endpoint._rx_delivered.get(tag[1], ())

    def _writer(self, pkt: ApePacket):
        obs = self.sim._obs
        span = None
        if obs is not None:
            span = obs.span("apenet", "rx_write", nbytes=pkt.nbytes)
        # A replayed fragment skips the payload DMA but keeps the
        # byte/completion bookkeeping: the duplicate completion is what
        # triggers the endpoint's re-ACK, and it must not overwrite
        # delivered data.
        if not self._is_replayed_fragment(pkt):
            yield self.card.fabric.write(
                self.card, pkt.dst_addr, pkt.nbytes, payload=pkt.data
            )
        if span is not None:
            span.end()
        msg = pkt.message
        got = self._msg_bytes.get(msg.msg_id, 0) + pkt.nbytes
        if got < msg.total_bytes:
            self._msg_bytes[msg.msg_id] = got
            return
        # Message complete: post the completion event to the host.
        self._msg_bytes.pop(msg.msg_id, None)
        cfg = self.card.config
        yield from self.card.nios.run(cfg.rx_event_post_cost, "rx")
        endpoint = self.card.endpoint
        if endpoint is None:
            return  # nobody is listening (raw low-level tests)
        yield self.card.fabric.write(self.card, endpoint.event_addr, 32)
        endpoint._deliver_remote(
            RxCompletion(
                msg_id=msg.msg_id,
                src_rank=msg.src_rank,
                dst_addr=msg.dst_addr,
                nbytes=msg.total_bytes,
                tag=msg.tag,
                time=self.sim.now,
            )
        )
