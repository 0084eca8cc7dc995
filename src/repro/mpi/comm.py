"""An MPI point-to-point layer over the InfiniBand fabric.

Implements the protocol structure that determines MVAPICH2/OpenMPI
performance in the paper:

* **eager** — small messages are RDMA-written into a pre-registered
  per-peer bounce ring at the receiver and copied out on match (while a
  peer's ring is full of messages not yet copied out, its small messages
  go by rendezvous instead);
* **rendezvous** — large messages handshake (RTS → CTS) and then
  RDMA-write straight into the posted receive buffer;
* **GPU awareness** — device pointers are staged through host vbufs,
  synchronously for small messages and through a chunked *single-stream*
  pipeline for large ones (see :mod:`repro.mpi.gpu_aware`), reproducing
  the behaviour the paper contrasts against P2P.

All caller-facing operations are generators (``yield from``); ``isend`` /
``irecv`` return :class:`MpiRequest` handles with ``.done`` events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from ..ib.cluster import IBCluster, IBClusterNode
from ..sim import Event, Simulator
from ..units import KiB, us
from .gpu_aware import GpuProtocol, MVAPICH2Protocol

__all__ = ["MpiWorld", "MpiEndpoint", "MpiRequest", "EAGER_THRESHOLD"]

EAGER_THRESHOLD = 12 * KiB
_EAGER_SLOTS = 16  # bounce slots per peer (credit-managed vbufs)
_HOST_COPY_RATE = 6.0  # bytes/ns, eager copy-out

_req_ids = itertools.count(1)


@dataclass
class MpiRequest:
    """Handle for a non-blocking operation."""

    kind: str  # "send" | "recv"
    peer: int
    tag: Any
    nbytes: int
    done: Event = None

    def __post_init__(self):
        if self.done is None:
            raise ValueError("request needs a done event")


@dataclass
class _PostedRecv:
    src: int  # peer rank
    tag: Any
    addr: int
    nbytes: int
    req: MpiRequest = None


@dataclass
class _Envelope:
    """Metadata riding on every wire message."""

    kind: str  # "eager" | "rts" | "cts" | "data"
    src: int
    tag: Any
    nbytes: int
    req_id: int = 0
    dst_addr: int = 0  # CTS: where the sender should write


class MpiEndpoint:
    """Per-rank progress engine + communication calls."""

    def __init__(self, world: "MpiWorld", node: IBClusterNode):
        self.world = world
        self.node = node
        self.sim: Simulator = world.sim
        self.rank = node.rank
        node.hca.on_receive = self._on_receive
        self._posted: list[_PostedRecv] = []
        self._unexpected: list[tuple[_Envelope, int]] = []  # (env, eager_addr)
        # Per-peer eager bounce rings (several slots so back-to-back eager
        # sends from one peer don't overwrite each other before copy-out)
        # and a control-message landing zone.
        n = len(world.cluster)
        self._eager_rx = node.runtime.host_alloc(
            EAGER_THRESHOLD * _EAGER_SLOTS * max(1, n)
        )
        self._eager_seq_tx: dict[int, int] = {}  # per-destination counter
        self._eager_busy: set[int] = set()  # slots not yet copied out
        self._ctrl = node.runtime.host_alloc(4096)
        # Rendezvous state: sender req_id -> (src_addr, CTS event);
        # receiver req_id -> posted recv awaiting the data message.
        self._rdv_waiting_cts: dict[int, tuple[int, Event]] = {}
        self._rdv_posted: dict[int, _PostedRecv] = {}
        self.gpu: GpuProtocol = world.protocol_factory(self)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def _eager_slot(self, src_rank: int, seq: int) -> int:
        base = self._eager_rx.addr + src_rank * _EAGER_SLOTS * EAGER_THRESHOLD
        return base + (seq % _EAGER_SLOTS) * EAGER_THRESHOLD

    def _is_device(self, addr: int) -> bool:
        return self.node.runtime.locate(addr)[0] is not None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def isend(self, dst: int, addr: int, nbytes: int, tag: Any = 0):
        """Generator: start a send; returns an MpiRequest."""
        req = MpiRequest("send", dst, tag, nbytes, done=Event(self.sim))
        obs = self.sim._obs
        if obs is not None:
            span = obs.span("mpi", "send", dst=dst, nbytes=nbytes)
            req.done.callbacks.append(span.end_event)
        if self._is_device(addr):
            yield from self.gpu.send(dst, addr, nbytes, tag, req)
        else:
            yield from self._host_isend(dst, addr, nbytes, tag, req)
        return req

    def send(self, dst: int, addr: int, nbytes: int, tag: Any = 0):
        """Generator: blocking send (returns when the buffer is reusable)."""
        req = yield from self.isend(dst, addr, nbytes, tag)
        yield req.done
        return req

    def irecv(self, src: int, addr: int, nbytes: int, tag: Any = 0):
        """Generator: post a receive; returns an MpiRequest."""
        req = MpiRequest("recv", src, tag, nbytes, done=Event(self.sim))
        obs = self.sim._obs
        if obs is not None:
            span = obs.span("mpi", "recv", src=src, nbytes=nbytes)
            req.done.callbacks.append(span.end_event)
        if self._is_device(addr):
            yield from self.gpu.recv(src, addr, nbytes, tag, req)
        else:
            yield from self._host_irecv(src, addr, nbytes, tag, req)
        return req

    def recv(self, src: int, addr: int, nbytes: int, tag: Any = 0):
        """Generator: blocking receive."""
        req = yield from self.irecv(src, addr, nbytes, tag)
        yield req.done
        return req

    def wait_all(self, requests):
        """Generator: wait for every request in *requests*."""
        pending = [r.done for r in requests if not r.done.processed]
        if pending:
            yield self.sim.all_of(pending)

    # ------------------------------------------------------------------
    # Host-pointer protocol
    # ------------------------------------------------------------------

    def _host_isend(self, dst, addr, nbytes, tag, req):
        hca = self.node.hca
        yield self.sim.timeout(hca.post_cost)
        env = _Envelope("eager", self.rank, tag, nbytes, req_id=next(_req_ids))
        dst_ep = self.world.endpoint(dst)
        seq = self._eager_seq_tx.get(dst, 0)
        slot = dst_ep._eager_slot(self.rank, seq)
        # Never overwrite a message not yet copied out: while the peer's
        # ring is full, small messages go by rendezvous too.
        if nbytes <= EAGER_THRESHOLD and slot not in dst_ep._eager_busy:
            self._eager_seq_tx[dst] = seq + 1
            dst_ep._eager_busy.add(slot)
            env.dst_addr = slot
            ev = hca.rdma_write(dst, addr, slot, nbytes, meta=env)
            # Eager: the local buffer is reusable once the HCA has read it.
            ev.callbacks.append(lambda _e: req.done.succeed(req))
        else:
            env.kind = "rts"
            cts_ev = Event(self.sim)
            self._rdv_waiting_cts[env.req_id] = (addr, cts_ev)
            # The envelope is built in this rank's control zone, not the
            # user buffer, so the RTS carries no user bytes.
            hca.rdma_write(dst, self._ctrl.addr, dst_ep._ctrl.addr, 64, meta=env)
            # Progress continues in _on_cts once the receiver matches.
            cts_ev.callbacks.append(
                lambda ev, e=env, a=addr, n=nbytes, r=req, d=dst: self._rdv_send_data(
                    d, a, n, e, ev.value, r
                )
            )

    def _rdv_send_data(self, dst, addr, nbytes, env, dst_addr, req):
        denv = _Envelope("data", self.rank, env.tag, nbytes, req_id=env.req_id)
        ev = self.node.hca.rdma_write(dst, addr, dst_addr, nbytes, meta=denv)
        ev.callbacks.append(lambda _e: req.done.succeed(req))

    def _host_irecv(self, src, addr, nbytes, tag, req):
        yield self.sim.timeout(self.node.hca.completion_cost)
        posted = _PostedRecv(src, tag, addr, nbytes, req)
        # Check the unexpected queue first.
        for i, (env, eager_addr) in enumerate(self._unexpected):
            if self._matches(posted, env):
                del self._unexpected[i]
                if env.kind == "rts":
                    self._send_cts(env, posted)
                else:
                    self._complete_eager(posted, env, eager_addr)
                return
        self._posted.append(posted)

    # ------------------------------------------------------------------
    # Progress engine (HCA receive callbacks)
    # ------------------------------------------------------------------

    @staticmethod
    def _matches(posted: _PostedRecv, env: _Envelope) -> bool:
        return posted.src == env.src and posted.tag == env.tag

    def _find_posted(self, env: _Envelope) -> Optional[_PostedRecv]:
        for i, p in enumerate(self._posted):
            if self._matches(p, env):
                return self._posted.pop(i)
        return None

    def _on_receive(self, msg) -> None:
        env: _Envelope = msg.meta
        if env.kind == "eager":
            posted = self._find_posted(env)
            if posted is None:
                self._unexpected.append((env, env.dst_addr))
            else:
                self._complete_eager(posted, env, env.dst_addr)
        elif env.kind == "rts":
            posted = self._find_posted(env)
            if posted is None:
                self._unexpected.append((env, 0))
            else:
                self._send_cts(env, posted)
        elif env.kind == "cts":
            entry = self._rdv_waiting_cts.pop(env.req_id, None)
            if entry is None:
                raise RuntimeError(f"rank {self.rank}: stray CTS {env.req_id}")
            _addr, cts_ev = entry
            cts_ev.succeed(env.dst_addr)
        elif env.kind == "data":
            # Rendezvous payload landed directly in the posted buffer.
            pending = self._rdv_posted.pop(env.req_id)
            pending.req.done.succeed(pending.req)
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unknown envelope kind {env.kind!r}")

    def _send_cts(self, env: _Envelope, posted: _PostedRecv) -> None:
        self._rdv_posted[env.req_id] = posted
        cts = _Envelope(
            "cts", self.rank, env.tag, env.nbytes, req_id=env.req_id,
            dst_addr=posted.addr,
        )
        src_ep = self.world.endpoint(env.src)
        self.node.hca.rdma_write(env.src, self._ctrl.addr, src_ep._ctrl.addr, 64, meta=cts)

    def _complete_eager(self, posted: _PostedRecv, env: _Envelope, eager_addr: int) -> None:
        # Copy out of the bounce ring into the user buffer.
        def copier():
            obs = self.sim._obs
            span = None
            if obs is not None:
                span = obs.span("mpi", "eager_copy", nbytes=env.nbytes)
            yield self.sim.timeout(env.nbytes / _HOST_COPY_RATE + us(0.2))
            if span is not None:
                span.end()
            heap = self.node.runtime.host_heap
            data = heap.buffer_at(eager_addr).read_bytes(eager_addr, env.nbytes)
            heap.buffer_at(posted.addr).write_bytes(posted.addr, data)
            self._eager_busy.remove(eager_addr)
            posted.req.done.succeed(posted.req)

        self.sim.process(copier(), name=f"mpi{self.rank}.eagercp")

    # ------------------------------------------------------------------
    # Collectives (linear implementations — cluster sizes are ≤ 12)
    # ------------------------------------------------------------------

    def allreduce(self, value, tag: Any = "_allreduce"):
        """Generator: sum a Python value over all ranks, result to all.

        Values ride the envelope tag (control-plane data, not simulated
        payload bytes beyond a small message).
        """
        n = len(self.world.cluster)
        if n == 1:
            return value
        scratch = self.world.scratch(self.rank)
        if self.rank == 0:
            acc = value
            for src in range(1, n):
                yield from self.recv(src, scratch, 8, tag=(tag, "v", src))
                acc = acc + self.world._collect_box.pop((tag, src))
            for dst in range(1, n):
                self.world._collect_box[(tag, "r", dst)] = acc
                yield from self.send(dst, scratch, 8, tag=(tag, "res", dst))
            return acc
        else:
            self.world._collect_box[(tag, self.rank)] = value
            yield from self.send(0, scratch, 8, tag=(tag, "v", self.rank))
            yield from self.recv(0, scratch, 8, tag=(tag, "res", self.rank))
            return self.world._collect_box.pop((tag, "r", self.rank))


class MpiWorld:
    """All endpoints of one MPI job."""

    def __init__(self, cluster: IBCluster, protocol_factory=None):
        self.sim = cluster.sim
        self.cluster = cluster
        self.protocol_factory = protocol_factory or MVAPICH2Protocol
        self._endpoints: list[MpiEndpoint] = []
        self._scratch: list[int] = []
        self._collect_box: dict = {}
        for node in cluster.nodes:
            ep = MpiEndpoint(self, node)
            self._endpoints.append(ep)
            self._scratch.append(node.runtime.host_alloc(256).addr)

    def endpoint(self, rank: int) -> MpiEndpoint:
        """The endpoint for *rank*."""
        return self._endpoints[rank]

    def scratch(self, rank: int) -> int:
        """A small host scratch address on *rank* (control-message plumbing)."""
        return self._scratch[rank]
