"""The user-facing APEnet+ RDMA API.

The programming model from §IV.A:

* buffers — host or GPU, identified by UVA pointers — are *registered*
  before use (BUF_LIST entry + host/GPU V2P mapping; GPU buffers are
  "mapped on-the-fly if not already present in an internal cache");
* :meth:`ApenetEndpoint.put` transmits a local buffer into a registered
  remote buffer.  "The source memory buffer type is chosen at compilation
  time by passing a flag to the PUT API.  This is useful to avoid a call to
  cuPointerGetAttribute(), which is possibly expensive" — pass
  ``src_kind`` to skip that charge, or leave it ``None`` to pay it;
* remote delivery raises a completion event at the destination, consumed
  with :meth:`wait_event` (event-queue polling).

All host-time-charging methods are generators (``yield from``).
"""

from __future__ import annotations

import itertools
from typing import Any, Optional


from ..cuda.runtime import CudaRuntime
from ..net.packet import MessageInfo, next_message_id
from ..net.topology import Coord
from ..pcie.device import MemoryBuffer
from ..sim import Event, Store
from ..units import us
from .buflist import BufferKind, RegisteredBuffer
from .card import ApenetCard
from .driver import ApenetDriver
from .jobs import TxJob
from .rx import RxCompletion

__all__ = ["ApenetEndpoint"]

# Host-side registration costs (not on the critical path of any benchmark).
_REGISTER_BASE_COST = us(2.0)
_REGISTER_HOST_PAGE_COST = us(0.02)
_REGISTER_GPU_PAGE_COST = us(0.20)  # P2P token retrieval + firmware install


class ApenetEndpoint:
    """Per-node handle onto the RDMA network."""

    def __init__(self, card: ApenetCard, runtime: CudaRuntime):
        self.sim = card.sim
        self.card = card
        self.runtime = runtime
        card.endpoint = self
        self.driver = ApenetDriver(self.sim, card, runtime.platform.host_memory)
        self.events: Store = Store(self.sim, name=f"{card.name}.events")
        # The event queue ring lives in host memory.
        self._event_buf = runtime.host_alloc(4096)
        self.event_addr = self._event_buf.addr
        # GET extension: a firmware mailbox where remote GET requests land
        # (installed at setup time, no simulated cost) plus per-request
        # completion routing.
        self._fw_mailbox = runtime.host_alloc(4096)
        self._fw_scratch = runtime.host_alloc(64)
        entry = RegisteredBuffer(self._fw_mailbox.addr, 4096, BufferKind.HOST)
        self.card.buflist.register(entry)
        self.card.host_v2p.map_range(self._fw_mailbox.addr, 4096)
        self._get_waiting: dict[int, Event] = {}
        self._peers: Optional[list["ApenetEndpoint"]] = None
        # --- End-to-end recovery state (repro.recovery) ---
        # Manager attached by the cluster builder; None keeps every code
        # path bit-identical to the recovery-free endpoint.
        self.recovery = None
        self._tx_seq: dict[int, int] = {}  # per-destination sequence numbers
        self._rput_waiting: dict[tuple[int, int], Event] = {}  # (dst, seq) -> ACK event
        self._rx_delivered: dict[int, set] = {}  # src rank -> delivered seqs
        # Host bounce buffers of degraded PUTs, each with the local
        # completion of the PUT that last read it.
        self._bounce: list[tuple[MemoryBuffer, Event]] = []

    @property
    def rank(self) -> int:
        """This endpoint's torus rank."""
        return self.card.rank

    @property
    def coord(self) -> Coord:
        """This endpoint's torus coordinate."""
        return self.card.coord

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, addr: int, nbytes: int):
        """Generator: pin + register a buffer for RDMA (host or GPU)."""
        gpu, buf = self.runtime.locate(addr)
        if nbytes <= 0:
            raise ValueError("registration needs a positive size")
        if not buf.contains(addr, nbytes):
            # BUF_LIST would admit PUTs into memory nothing allocated.
            raise ValueError(
                f"registration of {nbytes} bytes at 0x{addr:x} overruns its buffer"
            )
        if gpu is not None:
            pages = self.card.gpu_v2p.map_range(buf.addr, buf.size)
            cost = _REGISTER_BASE_COST + pages * _REGISTER_GPU_PAGE_COST
            if (
                self.card.config.gpu_tx_method == "bar1"
                and buf.addr not in self.card.bar1_tx_maps
            ):
                # BAR1-TX extension: expose the buffer through the BAR1
                # aperture — "an expensive operation, which requires a
                # full reconfiguration of the GPU".
                self.card.bar1_tx_maps[buf.addr] = gpu.bar1.map(buf)
                cost += gpu.spec.bar1_map_cost
            entry = RegisteredBuffer(addr, nbytes, BufferKind.GPU)
        else:
            pages = self.card.host_v2p.map_range(addr, nbytes)
            cost = _REGISTER_BASE_COST + pages * _REGISTER_HOST_PAGE_COST
            entry = RegisteredBuffer(addr, nbytes, BufferKind.HOST)
        self.card.buflist.register(entry)
        yield self.sim.timeout(cost)
        return entry

    # ------------------------------------------------------------------
    # PUT
    # ------------------------------------------------------------------

    def put(
        self,
        dst_rank: int,
        local_addr: int,
        remote_addr: int,
        nbytes: int,
        src_kind: Optional[BufferKind] = None,
        tag: Any = None,
    ):
        """Generator: post one RDMA PUT; returns the local-completion Event.

        ``src_kind`` is the compile-time buffer-type flag; omitting it costs
        a ``cuPointerGetAttribute`` query (§IV.A).  A flag that contradicts
        the pointer raises ``ValueError``.
        """
        cfg = self.card.config
        yield self.sim.timeout(cfg.put_post_cost)
        if src_kind is None:
            gpu, src_buf = yield from self.runtime.pointer_get_attributes(local_addr)
            src_kind = BufferKind.HOST if gpu is None else BufferKind.GPU
        else:
            gpu, src_buf = self.runtime.locate(local_addr)
            if (gpu is None) != (src_kind is BufferKind.HOST):
                where = "host memory" if gpu is None else f"{gpu.name} memory"
                raise ValueError(
                    f"PUT with src_kind={src_kind.name} from 0x{local_addr:x}, "
                    f"which is {where}"
                )

        mgr = self.recovery
        bounce = None
        if mgr is not None and src_kind is BufferKind.GPU:
            mgr.stats.gpu_puts += 1
            if mgr.should_degrade(self.card):
                # Sick NIC (Nios stall budget / TLP replay storm crossed):
                # transparently fall back from P2P to host staging — bounce
                # the source through host memory and post a HOST-kind PUT.
                bounce = yield from self._stage_degraded(local_addr, nbytes)
                local_addr = bounce.addr
                src_kind = BufferKind.HOST
                gpu, src_buf = None, bounce
                mgr.stats.degraded_puts += 1

        if not src_buf.contains(local_addr, nbytes):
            # The TX engines read the source buffer: fail here, not there.
            raise ValueError(f"PUT of {nbytes} bytes overruns its source buffer")
        # "the buffer mapping is automatically done, if necessary".
        if gpu is not None and not self.card.gpu_v2p.is_mapped(local_addr):
            yield from self.register(local_addr, nbytes)

        msg = MessageInfo(
            msg_id=next_message_id(),
            total_bytes=nbytes,
            src_rank=self.rank,
            dst_addr=remote_addr,
            tag=tag,
        )
        job = TxJob(
            message=msg,
            src_addr=local_addr,
            src_kind=src_kind,
            dst_coord=self.card.shape.coord(dst_rank),
            src_coord=self.coord,
            local_done=Event(self.sim),
            src_buf=src_buf,
        )
        if bounce is not None:
            self._bounce.append((bounce, job.local_done))
        obs = self.sim._obs
        if obs is not None:
            # Message-level span: post → local completion (TX pipeline
            # drained); the remote-completion tail shows up in the target's
            # rx/rx_write spans.
            span = obs.span(
                "apenet", "put", dst=dst_rank, nbytes=nbytes, kind=src_kind.name
            )
            job.local_done.callbacks.append(span.end_event)
        yield from self.driver.submit(job)
        return job.local_done

    def _stage_degraded(self, local_addr: int, nbytes: int):
        """Generator: D2H-copy a GPU source into a host bounce buffer.

        Returns the bounce buffer.  Like the persistent staging buffers of
        the paper's host-staged path, a degraded endpoint reuses its bounce
        buffers, but only one whose last PUT has completed locally (its TX
        engine has read every byte); until then it allocates another.
        """
        for i, (buf, read_done) in enumerate(self._bounce):
            if buf.size >= nbytes and read_done.triggered:
                del self._bounce[i]
                break
        else:
            buf = self.runtime.host_alloc(max(nbytes, 65536))
        from ..cuda.memcpy import memcpy_sync

        yield from memcpy_sync(self.runtime, buf.addr, local_addr, nbytes)
        return buf

    # ------------------------------------------------------------------
    # Reliable PUT (end-to-end transaction layer, repro.recovery)
    # ------------------------------------------------------------------

    def reliable_put(
        self,
        dst_rank: int,
        local_addr: int,
        remote_addr: int,
        nbytes: int,
        src_kind: Optional[BufferKind] = None,
        tag: Any = None,
    ):
        """Generator: PUT with end-to-end delivery guarantees.

        Wraps :meth:`put` in the recovery layer's transaction protocol:
        each message carries a per-destination sequence number, the
        receiver ACKs delivery (and re-ACKs duplicates), and the sender
        replays on an exponentially backed-off deadline until the bounded
        replay budget runs out.  Replays are idempotent — the receiver
        suppresses duplicate delivery, so a message never lands twice in
        application (or GPU) memory.  Returns a structured
        :class:`~repro.recovery.PutOutcome`; never raises on delivery
        failure and never silently loses a message.
        """
        mgr = self.recovery
        if mgr is None:
            raise RuntimeError(
                "reliable_put needs a recovery manager "
                "(build_apenet_cluster(..., recovery=RecoveryPolicy()))"
            )
        from ..recovery import PutOutcome

        policy = mgr.policy
        seq = self._tx_seq.get(dst_rank, 0) + 1
        self._tx_seq[dst_rank] = seq
        dst_coord = self.card.shape.coord(dst_rank)
        acked = Event(self.sim)
        self._rput_waiting[(dst_rank, seq)] = acked
        wire_tag = ("__rput__", self.rank, seq, tag)
        t0 = self.sim.now
        obs = self.sim._obs
        span = None
        if obs is not None:
            span = obs.span(
                "recovery", "reliable_put", dst=dst_rank, nbytes=nbytes, seq=seq
            )
        attempts = 0
        verdict = "timeout"
        try:
            while attempts < 1 + policy.put_max_retries:
                if not mgr.reachable(self.coord, dst_coord):
                    # Fail fast: the failure detector proved a partition.
                    verdict = "unreachable"
                    mgr.stats.unreachable_puts += 1
                    break
                attempts += 1
                if attempts > 1:
                    mgr.stats.replays += 1
                    if obs is not None:
                        obs.instant(
                            "recovery", "replay", dst=dst_rank, seq=seq, attempt=attempts
                        )
                yield from self.put(
                    dst_rank, local_addr, remote_addr, nbytes,
                    src_kind=src_kind, tag=wire_tag,
                )
                deadline = self.sim.timeout(policy.timeout_for(nbytes, attempts))
                yield self.sim.any_of([acked, deadline])
                if acked.triggered:
                    return PutOutcome(True, "delivered", attempts, self.sim.now - t0)
                mgr.stats.put_timeouts += 1
            return PutOutcome(False, verdict, attempts, self.sim.now - t0)
        finally:
            self._rput_waiting.pop((dst_rank, seq), None)
            if not acked.triggered:
                # Retire the ACK event so a failed transaction leaves no
                # pending event behind (a late ACK finds the dict empty).
                acked.succeed(None)
            if span is not None:
                span.end()

    def _on_rput(self, rec: RxCompletion) -> None:
        """Receiver side of the transaction protocol (duplicate-safe)."""
        _, src_rank, seq, user_tag = rec.tag
        delivered = self._rx_delivered.setdefault(src_rank, set())
        duplicate = seq in delivered
        if duplicate:
            mgr = self.recovery
            if mgr is not None:
                mgr.stats.duplicates_suppressed += 1
            obs = self.sim._obs
            if obs is not None:
                obs.instant("recovery", "duplicate", src=src_rank, seq=seq)
        else:
            delivered.add(seq)
        # ACK unconditionally: the sender may be replaying because the
        # previous ACK (not the data) was lost.
        self.sim.process(
            self._send_rput_ack(src_rank, seq), name=f"{self.card.name}.rput_ack"
        )
        if not duplicate:
            rec.tag = user_tag
            self.events.put(rec)

    def _send_rput_ack(self, src_rank: int, seq: int):
        """Generator process: 32-byte ACK into the sender's firmware mailbox."""
        if self._peers is None:
            return  # raw low-level tests; reliable_put needs built clusters
        target = self._peers[src_rank]
        yield from self.put(
            src_rank,
            self._fw_scratch.addr,
            target._fw_mailbox.addr,
            32,
            src_kind=BufferKind.HOST,
            tag=("__rput_ack__", self.rank, seq),
        )

    # ------------------------------------------------------------------
    # GET (extension: the read half of the RDMA model)
    # ------------------------------------------------------------------

    _get_ids = itertools.count(1)

    def link_peers(self, peers: list["ApenetEndpoint"]) -> None:
        """Give this endpoint the cluster's endpoint table (enables GET)."""
        self._peers = peers

    def get(
        self,
        src_rank: int,
        remote_addr: int,
        local_addr: int,
        nbytes: int,
        tag: Any = None,
    ):
        """Generator: RDMA GET — fetch a registered remote region.

        The APEnet+ RDMA model "has been extended with the ability to READ
        and write the GPU private memory" (§III.B); the paper's benchmarks
        only exercise PUT, so GET is implemented here as the natural dual:
        a small request message to the target's firmware, answered with a
        PUT of the requested region (host- or GPU-sourced according to the
        target buffer's registered kind).  Returns the arrival record once
        the data has landed in *local_addr* (which must be registered).
        """
        if self._peers is None:
            raise RuntimeError("GET needs link_peers() (built clusters do this)")
        get_id = next(self._get_ids)
        arrival = Event(self.sim)
        self._get_waiting[get_id] = arrival
        target = self._peers[src_rank]
        yield from self.put(
            src_rank,
            self._fw_scratch.addr,
            target._fw_mailbox.addr,
            64,
            src_kind=BufferKind.HOST,
            tag=("__get_req__", get_id, remote_addr, local_addr, nbytes, self.rank, tag),
        )
        rec = yield arrival
        return rec

    def _serve_get(self, get_id, remote_addr, local_addr, nbytes, requester, user_tag):
        """Firmware-side responder: PUT the requested region back."""
        entry = self.card.buflist.find(remote_addr)
        if entry is None:
            return  # invalid GET: dropped like any unvalidated packet
        yield from self.put(
            requester,
            remote_addr,
            local_addr,
            nbytes,
            src_kind=entry.kind,
            tag=("__get_data__", get_id, user_tag),
        )

    # ------------------------------------------------------------------
    # Completion events
    # ------------------------------------------------------------------

    def wait_event(self):
        """Generator: block until the next remote-completion event."""
        yield self.sim.timeout(self.card.config.completion_poll_cost)
        rec = yield self.events.get()
        return rec

    def _deliver_remote(self, rec: RxCompletion) -> None:
        tag = rec.tag
        if isinstance(tag, tuple) and tag and tag[0] == "__rput__":
            self._on_rput(rec)
            return
        if isinstance(tag, tuple) and tag and tag[0] == "__rput_ack__":
            # ACK for (this sender's) transaction to rank tag[1], seq tag[2].
            waiter = self._rput_waiting.get((tag[1], tag[2]))
            if waiter is not None and not waiter.triggered:
                waiter.succeed(rec)
            return  # protocol traffic: never surfaces on the app event queue
        if isinstance(tag, tuple) and tag and tag[0] == "__get_req__":
            _, get_id, remote_addr, local_addr, nbytes, requester, user_tag = tag
            self.sim.process(
                self._serve_get(get_id, remote_addr, local_addr, nbytes, requester, user_tag),
                name=f"{self.card.name}.get",
            )
            return
        if isinstance(tag, tuple) and tag and tag[0] == "__get_data__":
            waiting = self._get_waiting.pop(tag[1], None)
            if waiting is not None:
                waiting.succeed(rec)
                return
        self.events.put(rec)
