"""Micro-benchmark primitives: the tests behind every figure.

These implement the paper's synthetic benchmarks (§V.B/C) against the
RDMA API:

* :func:`unidirectional_bandwidth` — "allocates a single receive buffer,
  then enters a tight loop, enqueuing as many RDMA PUT as possible as to
  keep the transmission queue constantly full"; reports steady-state
  delivered bandwidth (Figs 4–7, Table I).
* :func:`pingpong_latency` — latency "estimated as half the round-trip time
  in a ping-pong test" (Figs 8, 9).
* :func:`sender_gap` — per-message sender-side cost under a full queue: the
  LogP *host overhead* o (Fig 10).
* ``staged_*`` variants — the P2P=OFF mode: GPU data staged through host
  bounce buffers with cudaMemcpy, pipelined for bandwidth.

All functions build fresh clusters so results are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..apenet.buflist import BufferKind
from ..apenet.config import DEFAULT_CONFIG
from ..apenet.jobs import fragment_message
from ..cuda.memcpy import memcpy_async, memcpy_sync
from ..cuda.stream import CudaStream
from ..net.cluster import build_apenet_cluster
from ..net.topology import TorusShape
from ..sim import DeadlockError, Simulator
from ..units import KiB, MiB, us

__all__ = [
    "BandwidthResult",
    "LatencyResult",
    "make_cluster",
    "alloc_kind",
    "loopback_read_bandwidth",
    "bar1_read_bandwidth",
    "unidirectional_bandwidth",
    "bidirectional_bandwidth",
    "pingpong_latency",
    "sender_gap",
    "staged_unidirectional_bandwidth",
    "staged_pingpong_latency",
]


@dataclass
class BandwidthResult:
    """One point of a bandwidth sweep."""

    msg_size: int
    bandwidth: float  # bytes/ns == GB/s
    n_messages: int
    duration: float  # ns measured (steady-state window)

    @property
    def MBps(self) -> float:
        """Bandwidth in MB/s, as the paper's plots report."""
        return self.bandwidth * 1000.0


@dataclass
class LatencyResult:
    """One point of a latency sweep."""

    msg_size: int
    half_rtt: float  # ns
    iterations: int

    @property
    def usec(self) -> float:
        """Half round-trip in microseconds."""
        return self.half_rtt / 1000.0


def make_cluster(
    nx: int = 2,
    ny: int = 1,
    nz: int = 1,
    gpu_spec=None,
    use_plx: bool = False,
    cuda_costs=None,
    faults=None,
    recovery=None,
    **overrides,
):
    """Fresh simulator + cluster: ``DEFAULT_CONFIG`` with any field overrides.

    ``faults`` — a :class:`~repro.faults.FaultPlan` or shared
    :class:`~repro.faults.FaultInjector` (chaos benchmarks); None keeps
    the cluster fault-free and bit-identical to the default build.
    ``recovery`` — a :class:`~repro.recovery.RecoveryPolicy` or prebuilt
    :class:`~repro.recovery.RecoveryManager`; None keeps the cluster
    recovery-free and bit-identical to the default build.
    """
    sim = Simulator()
    cfg = DEFAULT_CONFIG.with_(**overrides) if overrides else DEFAULT_CONFIG
    shape = TorusShape(nx, ny, nz)
    specs = [gpu_spec] * shape.size if gpu_spec is not None else None
    cluster = build_apenet_cluster(
        sim, shape, cfg, gpu_specs=specs, use_plx=use_plx, cuda_costs=cuda_costs,
        faults=faults, recovery=recovery,
    )
    return sim, cluster


def alloc_kind(node, kind: BufferKind, nbytes: int) -> int:
    """Allocate a host or GPU buffer on *node*; returns its UVA address."""
    if kind is BufferKind.GPU:
        return node.gpu.alloc(nbytes).addr
    return node.runtime.host_alloc(nbytes).addr


def _steady_bandwidth(msg_size: int, times: list[float], n_messages: int) -> BandwidthResult:
    """Delivered bandwidth over the steady-state window of sorted *times*.

    *times* are message completion times.  The first quarter is the
    pipeline filling and is left out: the window runs from the last of
    those completions to the final one.
    """
    k = max(1, len(times) // 4)
    duration = times[-1] - times[k - 1]
    nbytes = (len(times) - k) * msg_size
    return BandwidthResult(msg_size, nbytes / duration if duration > 0 else 0.0, n_messages, duration)


def default_message_count(msg_size: int) -> int:
    """Enough messages to reach steady state without wasting events."""
    target_bytes = 8 * MiB
    return max(8, min(96, math.ceil(target_bytes / msg_size)))


# ---------------------------------------------------------------------------
# Loop-back memory-read bandwidth (Table I, Fig 4)
# ---------------------------------------------------------------------------


def bar1_read_bandwidth(gpu_spec) -> BandwidthResult:
    """GPU memory read of 1 MiB through the BAR1 aperture (Table I's BAR1 rows).

    "BAR1 results taken on an ideal platform, APEnet+ and GPU linked by a
    PLX PCIe switch" — the card issues plain windowed PCIe reads against a
    BAR1-mapped buffer (no mailbox protocol involved).
    """
    nbytes = MiB
    sim, cluster = make_cluster(1, 1, gpu_spec=gpu_spec, use_plx=True)
    node = cluster.nodes[0]
    buf = node.gpu.alloc(nbytes)
    bar1_addr = node.gpu.bar1.map(buf)

    def proc():
        yield sim.timeout(node.gpu.spec.bar1_map_cost)  # mapping reconfig
        t0 = sim.now
        yield node.platform.fabric.read_pipelined(node.card, bar1_addr, nbytes, outstanding=8)
        return nbytes / (sim.now - t0)

    bw = sim.run_process(proc())
    return BandwidthResult(nbytes, bw, 1, nbytes / bw)


def loopback_read_bandwidth(
    src_kind: BufferKind,
    msg_size: int,
    n_messages: Optional[int] = None,
    **overrides,
) -> BandwidthResult:
    """Single-board memory-read bandwidth with flushed TX FIFOs.

    "obtained by flushing the packets while traversing APEnet+ internal
    switch logic" — isolates the TX read path from RX processing.
    """
    overrides.setdefault("flush_tx", True)
    sim, cluster = make_cluster(1, 1, **overrides)
    node = cluster.nodes[0]
    n_messages = n_messages or default_message_count(msg_size)
    src = alloc_kind(node, src_kind, msg_size)
    times: list[float] = []

    def proc():
        if src_kind is BufferKind.GPU:
            yield from node.endpoint.register(src, msg_size)
        for _ in range(n_messages):
            done = yield from node.endpoint.put(
                0, src, 0xDEAD_0000, msg_size, src_kind=src_kind
            )
            done.callbacks.append(lambda _ev: times.append(sim.now))

    sim.run_process(proc())
    return _steady_bandwidth(msg_size, times, n_messages)


# ---------------------------------------------------------------------------
# Uni-directional bandwidth (Figs 5, 6, 7; loop-back rows of Table I)
# ---------------------------------------------------------------------------


def unidirectional_bandwidth(
    src_kind: BufferKind,
    dst_kind: BufferKind,
    msg_size: int,
    n_messages: Optional[int] = None,
    loopback: bool = False,
    faults=None,
    **overrides,
) -> BandwidthResult:
    """Two-node (or loop-back) PUT bandwidth, receiver-side steady state."""
    if loopback:
        sim, cluster = make_cluster(1, 1, faults=faults, **overrides)
        src_node = dst_node = cluster.nodes[0]
        dst_rank = 0
    else:
        sim, cluster = make_cluster(2, 1, faults=faults, **overrides)
        src_node, dst_node = cluster.nodes[0], cluster.nodes[1]
        dst_rank = 1
    n_messages = n_messages or default_message_count(msg_size)
    src = alloc_kind(src_node, src_kind, msg_size)
    dst = alloc_kind(dst_node, dst_kind, msg_size)
    completions: list[float] = []

    def receiver():
        yield from dst_node.endpoint.register(dst, msg_size)
        for _ in range(n_messages):
            yield from dst_node.endpoint.wait_event()
            completions.append(sim.now)

    def sender():
        yield sim.timeout(us(10))  # let registration land
        if src_kind is BufferKind.GPU:
            yield from src_node.endpoint.register(src, msg_size)
        for _ in range(n_messages):
            # Tight loop: the descriptor ring provides the backpressure.
            yield from src_node.endpoint.put(
                dst_rank, src, dst, msg_size, src_kind=src_kind
            )

    sim.process(sender())
    sim.run_process(receiver())
    return _steady_bandwidth(msg_size, completions, n_messages)


def bidirectional_bandwidth(
    src_kind: BufferKind,
    dst_kind: BufferKind,
    msg_size: int,
    n_messages: Optional[int] = None,
    **overrides,
) -> BandwidthResult:
    """Two-node bandwidth with BOTH nodes transmitting simultaneously.

    The paper stops short of reporting this ("the APEnet+ bi-directional
    bandwidth, which is not reported here, will reflect a similar
    behaviour", §IV) — because each card's Nios II then runs its RX task
    AND its TX bookkeeping at once, the aggregate is well below 2x the
    uni-directional figure.  Reported: aggregate delivered bytes/ns.
    """
    sim, cluster = make_cluster(2, 1, **overrides)
    n_messages = n_messages or default_message_count(msg_size)
    bufs = {}
    for node in cluster.nodes:
        bufs[node.rank] = (
            alloc_kind(node, src_kind, msg_size),
            alloc_kind(node, dst_kind, msg_size),
        )
    completions: list[float] = []

    def receiver(rank):
        node = cluster.nodes[rank]
        yield from node.endpoint.register(bufs[rank][1], msg_size)
        for _ in range(n_messages):
            yield from node.endpoint.wait_event()
            completions.append(sim.now)

    def sender(rank):
        node = cluster.nodes[rank]
        peer = 1 - rank
        yield sim.timeout(us(10))
        if src_kind is BufferKind.GPU:
            yield from node.endpoint.register(bufs[rank][0], msg_size)
        for _ in range(n_messages):
            yield from node.endpoint.put(
                peer, bufs[rank][0], bufs[peer][1], msg_size, src_kind=src_kind
            )

    procs = [sim.process(receiver(r)) for r in (0, 1)]
    for r in (0, 1):
        sim.process(sender(r))
    sim.run()
    if not all(p.processed for p in procs):
        raise DeadlockError("bidirectional receivers never finished")
    completions.sort()
    return _steady_bandwidth(msg_size, completions, 2 * n_messages)


# ---------------------------------------------------------------------------
# Ping-pong latency (Figs 8, 9)
# ---------------------------------------------------------------------------

# Ping-pong rounds per latency point, of which the first few are warm-up.
_PINGPONG_ITERATIONS = 12
_PINGPONG_SKIP = 2


def pingpong_latency(
    src_kind: BufferKind,
    dst_kind: BufferKind,
    msg_size: int,
    faults=None,
    **overrides,
) -> LatencyResult:
    """Half round-trip of a PUT ping-pong between two nodes.

    The pong travels dst_kind -> src_kind, mirroring the OSU latency test's
    symmetric buffer placement.
    """
    sim, cluster = make_cluster(2, 1, faults=faults, **overrides)
    a, b = cluster.nodes[0], cluster.nodes[1]
    buf_a = alloc_kind(a, src_kind, msg_size)
    buf_b = alloc_kind(b, dst_kind, msg_size)
    rtts: list[float] = []

    def node_b():
        yield from b.endpoint.register(buf_b, msg_size)
        for _ in range(_PINGPONG_ITERATIONS):
            yield from b.endpoint.wait_event()
            yield from b.endpoint.put(0, buf_b, buf_a, msg_size, src_kind=dst_kind)

    def node_a():
        yield from a.endpoint.register(buf_a, msg_size)
        yield sim.timeout(us(10))
        for _ in range(_PINGPONG_ITERATIONS):
            t0 = sim.now
            yield from a.endpoint.put(1, buf_a, buf_b, msg_size, src_kind=src_kind)
            yield from a.endpoint.wait_event()
            rtts.append(sim.now - t0)

    sim.process(node_b())
    sim.run_process(node_a())
    kept = rtts[_PINGPONG_SKIP:]
    return LatencyResult(msg_size, sum(kept) / len(kept) / 2.0, len(kept))


# ---------------------------------------------------------------------------
# Sender gap — LogP host overhead (Fig 10)
# ---------------------------------------------------------------------------


def sender_gap(
    src_kind: BufferKind,
    dst_kind: BufferKind,
    msg_size: int,
    n_messages: int = 48,
    staged: bool = False,
    **overrides,
) -> float:
    """Mean time between successive put() returns under a full queue (ns).

    "In the LogP model, this is the host overhead, i.e. the fraction of the
    whole message send-to-receive time which does not overlap with
    subsequent transmissions."  With ``staged=True`` the sender performs the
    synchronous D2H staging copy before each put (P2P=OFF mode).
    """
    sim, cluster = make_cluster(2, 1, **overrides)
    src_node, dst_node = cluster.nodes[0], cluster.nodes[1]
    send_kind = BufferKind.HOST if staged else src_kind
    src = alloc_kind(src_node, send_kind, msg_size)
    gpu_src = alloc_kind(src_node, BufferKind.GPU, msg_size) if staged else None
    dst = alloc_kind(dst_node, dst_kind, msg_size)

    def receiver():
        yield from dst_node.endpoint.register(dst, msg_size)
        for _ in range(n_messages):
            yield from dst_node.endpoint.wait_event()

    t_start = {}

    def sender():
        yield sim.timeout(us(10))
        if send_kind is BufferKind.GPU:
            yield from src_node.endpoint.register(src, msg_size)
        t_start["t"] = sim.now
        for _ in range(n_messages):
            if staged:
                yield from memcpy_sync(src_node.runtime, src, gpu_src, msg_size)
            yield from src_node.endpoint.put(
                1, src, dst, msg_size, src_kind=send_kind
            )

    sim.process(sender())
    sim.run_process(receiver())
    # "Run times of the bandwidth test": first submission to full delivery,
    # per message.
    span = sim.now - t_start["t"]
    return span / n_messages


# ---------------------------------------------------------------------------
# Staging (P2P=OFF) variants
# ---------------------------------------------------------------------------

_STAGE_CHUNK = 256 * KiB


def staged_unidirectional_bandwidth(
    msg_size: int,
    n_messages: Optional[int] = None,
    faults=None,
    **overrides,
) -> BandwidthResult:
    """G-G bandwidth through host bounce buffers (P2P=OFF).

    Messages up to 256 KiB use a single bounce buffer: the sender
    performs one synchronous D2H copy, PUTs, and must wait for the
    receiver's drain credit before reusing the buffer (the buffer would
    otherwise be overwritten in flight).  Larger messages are chunked
    through a double-buffered pipeline — the standard staging optimization,
    which is why staging approaches the full H-H rate for multi-megabyte
    messages (Fig 7) while being badly serialized for small ones.
    """
    sim, cluster = make_cluster(2, 1, faults=faults, **overrides)
    src_node, dst_node = cluster.nodes[0], cluster.nodes[1]
    n_messages = n_messages or default_message_count(msg_size)
    if msg_size <= _STAGE_CHUNK:
        window, chunk = 1, msg_size
    else:
        window, chunk = 2, _STAGE_CHUNK
    pieces = fragment_message(msg_size, chunk)
    gpu_src = alloc_kind(src_node, BufferKind.GPU, msg_size)
    host_src = alloc_kind(src_node, BufferKind.HOST, chunk * window)
    host_dst = alloc_kind(dst_node, BufferKind.HOST, chunk * window)
    gpu_dst = alloc_kind(dst_node, BufferKind.GPU, msg_size)
    credit_buf = alloc_kind(src_node, BufferKind.HOST, 64)
    completions: list[float] = []
    total_pieces = n_messages * len(pieces)

    def receiver():
        yield from dst_node.endpoint.register(host_dst, chunk * window)
        stream = CudaStream(sim, "rx-stage")
        done_pieces = 0
        for _ in range(total_pieces):
            rec = yield from dst_node.endpoint.wait_event()
            ev = yield from memcpy_async(
                dst_node.runtime, gpu_dst, rec.dst_addr, rec.nbytes, stream
            )
            yield ev
            done_pieces += 1
            if done_pieces % len(pieces) == 0:
                completions.append(sim.now)
            # Return the bounce-buffer credit.
            yield from dst_node.endpoint.put(
                0, host_dst, credit_buf, 32, src_kind=BufferKind.HOST, tag="credit"
            )

    def sender():
        yield from src_node.endpoint.register(credit_buf, 64)
        yield sim.timeout(us(10))
        in_flight = 0
        slot_i = 0
        for _ in range(n_messages):
            for off, csize in pieces:
                if in_flight >= window:
                    yield from src_node.endpoint.wait_event()  # credit back
                    in_flight -= 1
                slot = (slot_i % window) * chunk
                slot_i += 1
                yield from memcpy_sync(
                    src_node.runtime, host_src + slot, gpu_src + off, csize
                )
                yield from src_node.endpoint.put(
                    1, host_src + slot, host_dst + slot, csize, src_kind=BufferKind.HOST
                )
                in_flight += 1

    sim.process(sender())
    sim.run_process(receiver())
    return _steady_bandwidth(msg_size, completions, n_messages)


def staged_pingpong_latency(msg_size: int, **overrides) -> LatencyResult:
    """G-G ping-pong with host staging (P2P=OFF): sync D2H before each send,
    async H2D on receive (the receive side overlaps with event polling)."""
    sim, cluster = make_cluster(2, 1, **overrides)
    a, b = cluster.nodes[0], cluster.nodes[1]
    ga, ha = alloc_kind(a, BufferKind.GPU, msg_size), alloc_kind(a, BufferKind.HOST, msg_size)
    gb, hb = alloc_kind(b, BufferKind.GPU, msg_size), alloc_kind(b, BufferKind.HOST, msg_size)
    rtts: list[float] = []

    def node_b():
        yield from b.endpoint.register(hb, msg_size)
        sb = CudaStream(sim, "b-stage")
        for _ in range(_PINGPONG_ITERATIONS):
            yield from b.endpoint.wait_event()
            # Drain the bounce buffer asynchronously (enqueue-only cost; the
            # pong uses its own buffer so it need not wait for the copy).
            yield from memcpy_async(b.runtime, gb, hb, msg_size, sb)
            # The pong's own staging copy is synchronous — the ~10 us
            # cudaMemcpy overhead the paper attributes the latency gap to.
            yield from memcpy_sync(b.runtime, hb, gb, msg_size)
            yield from b.endpoint.put(0, hb, ha, msg_size, src_kind=BufferKind.HOST)

    def node_a():
        yield from a.endpoint.register(ha, msg_size)
        yield sim.timeout(us(10))
        sa = CudaStream(sim, "a-stage")
        for _ in range(_PINGPONG_ITERATIONS):
            t0 = sim.now
            yield from memcpy_sync(a.runtime, ha, ga, msg_size)
            yield from a.endpoint.put(1, ha, hb, msg_size, src_kind=BufferKind.HOST)
            yield from a.endpoint.wait_event()
            yield from memcpy_async(a.runtime, ga, ha, msg_size, sa)
            rtts.append(sim.now - t0)

    sim.process(node_b())
    sim.run_process(node_a())
    kept = rtts[_PINGPONG_SKIP:]
    return LatencyResult(msg_size, sum(kept) / len(kept) / 2.0, len(kept))
