"""Exact per-packet golden reference for the batched flow engine.

:func:`run_exact` drives a batch of :class:`~repro.scale.flow.
BulkTransfer`\\ s through the full per-packet APEnet+ stack — driver
descriptor feed, TX engine, torus links with credit flow control, RX
Nios II buffer-list walk — and reports the same
:class:`~repro.scale.flow.TransferAggregates` shape the flow engine
emits, so the parity harness can diff the two modes field by field.

The canonical setup keeps both modes on the same code path:

* a :class:`~repro.recovery.manager.RecoveryManager` is always attached
  (dormant managers are bit-identical to none, proven by the PR-5
  suites), with any dead links pre-marked before traffic starts;
* one landing buffer per (destination, kind) is registered up front, all
  inbound transfers landing at distinct offsets, and GPU source buffers
  are pre-registered — registration costs never bleed into transfer
  timing (a *settle* phase runs to quiescence before the epoch);
* transfers whose destination is unreachable under the dead-link set are
  not posted (mirroring ``reliable_put``'s unreachable verdict), in both
  modes;
* completion times are read from :class:`~repro.apenet.rx.RxCompletion`
  records (stamped at RX event-post time), so they are independent of
  receiver polling order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..apenet.buflist import BufferKind
from ..apenet.config import DEFAULT_CONFIG, ApenetConfig
from ..gpu import FERMI_2050
from ..net.cluster import build_apenet_cluster
from ..net.topology import RouteTable, TorusShape
from ..recovery import RecoveryManager
from ..sim import Simulator
from .flow import BulkTransfer, TransferAggregates

__all__ = ["run_exact"]


def _alloc(node, kind: BufferKind, nbytes: int) -> int:
    if kind is BufferKind.GPU:
        return node.gpu.alloc(nbytes).addr
    return node.runtime.host_alloc(nbytes).addr


def run_exact(
    dims: Tuple[int, int, int],
    transfers: Sequence[BulkTransfer],
    config: Optional[ApenetConfig] = None,
    dead_links: Iterable = (),
) -> TransferAggregates:
    """Run *transfers* through the per-packet stack on a *dims* torus."""
    config = config or DEFAULT_CONFIG
    shape = TorusShape(*dims)
    dead = RouteTable(shape, dead_links).dead

    sim = Simulator()
    manager = RecoveryManager(sim, shape)
    for coord, dim, direction in sorted(dead):
        manager.mark_dead(coord, dim, direction, site="scale.exact")
    cluster = build_apenet_cluster(
        sim,
        shape,
        config,
        gpu_specs=[FERMI_2050] * shape.size,
        recovery=manager,
    )

    # Reachability under the (static) dead-link set decides what is posted.
    reachable = [
        manager.reachable(shape.coord(tr.src), shape.coord(tr.dst)) for tr in transfers
    ]

    # -- allocation: one pooled buffer per (node, kind) role, transfers at
    # distinct offsets.  Pooling keeps buffer-list/V2P table sizes
    # independent of the transfer count, so the per-fragment scan costs
    # match the (small) calibration probes exactly.
    def _pool(role_key):  # (rank, kind) -> (base_addr, running_total)
        inbound_total: Dict[Tuple[int, BufferKind], int] = {}
        offsets: List[int] = []
        for tr in transfers:
            key = role_key(tr)
            offsets.append(inbound_total.get(key, 0))
            inbound_total[key] = inbound_total.get(key, 0) + tr.nbytes
        base = {
            key: _alloc(cluster.nodes[key[0]], key[1], max(total, 64))
            for key, total in sorted(
                inbound_total.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
            )
        }
        return base, inbound_total, offsets

    landing_base, inbound_total, dst_offsets = _pool(lambda tr: (tr.dst, tr.dst_kind))
    source_base, outbound_total, src_offsets = _pool(lambda tr: (tr.src, tr.src_kind))
    dst_addrs = [
        landing_base[(tr.dst, tr.dst_kind)] + off
        for tr, off in zip(transfers, dst_offsets)
    ]
    src_addrs = [
        source_base[(tr.src, tr.src_kind)] + off
        for tr, off in zip(transfers, src_offsets)
    ]

    # -- settle phase: register everything, then drain to quiescence --------
    def _register(node, addr, nbytes):
        yield from node.endpoint.register(addr, nbytes)

    for key in sorted(landing_base, key=lambda kv: (kv[0], kv[1].value)):
        node = cluster.nodes[key[0]]
        sim.process(_register(node, landing_base[key], max(inbound_total[key], 64)))
    for key in sorted(source_base, key=lambda kv: (kv[0], kv[1].value)):
        if key[1] is BufferKind.GPU:
            node = cluster.nodes[key[0]]
            sim.process(_register(node, source_base[key], max(outbound_total[key], 64)))
    sim.run()
    epoch = sim.now

    # -- traffic phase ------------------------------------------------------
    completions: List[Optional[float]] = [None] * len(transfers)

    def sender(node, items):
        for idx, tr in items:
            target = epoch + tr.start
            if sim.now < target:
                yield sim.timeout(target - sim.now)
            yield from node.endpoint.put(
                tr.dst,
                src_addrs[idx],
                dst_addrs[idx],
                tr.nbytes,
                src_kind=tr.src_kind,
                tag=("bulk", idx),
            )

    def receiver(node, expected):
        got = 0
        while got < expected:
            rec = yield from node.endpoint.wait_event()
            tag = rec.tag
            if isinstance(tag, tuple) and tag and tag[0] == "bulk":
                completions[tag[1]] = rec.time - epoch
                got += 1

    by_src: Dict[int, List[Tuple[int, BulkTransfer]]] = {}
    expected_at: Dict[int, int] = {}
    for i, tr in enumerate(transfers):
        if not reachable[i]:
            continue
        by_src.setdefault(tr.src, []).append((i, tr))
        expected_at[tr.dst] = expected_at.get(tr.dst, 0) + 1
    for src in sorted(by_src):
        items = sorted(by_src[src], key=lambda it: (it[1].start, it[0]))
        sim.process(sender(cluster.nodes[src], items))
    for dst in sorted(expected_at):
        sim.process(receiver(cluster.nodes[dst], expected_at[dst]))
    sim.run()

    # -- aggregates ---------------------------------------------------------
    link_bytes: Dict[Tuple[int, int, int], int] = {}
    link_packets: Dict[Tuple[int, int, int], int] = {}
    link_busy: Dict[Tuple[int, int, int], float] = {}
    for key in sorted(cluster.links):
        link = cluster.links[key]
        if link.packets_sent:
            link_bytes[key] = link.bytes_sent
            link_packets[key] = link.packets_sent
            link_busy[key] = link.channel._busy_time

    finished = [c for c in completions if c is not None]
    return TransferAggregates(
        bytes_delivered=sum(
            tr.nbytes for tr, c in zip(transfers, completions) if c is not None
        ),
        completions=tuple(completions),
        link_bytes=link_bytes,
        link_packets=link_packets,
        link_busy=link_busy,
        makespan=max(finished) if finished else 0.0,
    )
