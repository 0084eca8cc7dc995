"""Batched bulk-flow engine: the NumPy/analytic twin of the per-packet path.

Large RDMA PUTs are simulated as *flow records* instead of per-packet
events: fragment fan-out, wire bytes and per-link byte/packet/busy
accounting are computed analytically (these aggregates are **lossless**
— bit-identical to the exact per-packet driver in
:mod:`repro.scale.exact` by construction), while completion *times* come
from a probe-calibrated piecewise-affine latency model.

Calibration (:func:`calibrate`) runs a handful of tiny exact-DES probes
through the golden per-packet stack and fits

* a piecewise-linear base latency over fragment-count knots (exact at the
  knots, slope beyond the last knot equal to the steady per-fragment
  service time of the RX Nios II — the pipeline bottleneck, §IV.C),
* a per-hop term (pipelined link+router traversal),
* per-byte sensitivities for a partial last fragment, and
* back-to-back *occupancy* knots (the steady-state gap between
  consecutive same-path messages, the LogP ``g`` of the flow model).

Because the exact simulator is deterministic and always runs
:data:`~repro.apenet.config.DEFAULT_CONFIG`, calibration is a pure
function of the buffer kinds; it is memoised module-wide per
``(src_kind, dst_kind)`` pair.

Contention between concurrent flows is modelled with per-resource
*free times* (TX endpoint, RX endpoint, every traversed link): a flow
begins service when every resource on its path is free
(``begin = max(start, max_r free_r)``), completes at ``begin + T_lat``,
and holds each resource for its own occupancy (``free_r = begin +
O_r``).  This reproduces the probed back-to-back gap exactly for
same-path sequences and degrades gracefully for overlapping
cross-traffic (each contender pushes later flows back by its
serialisation load, not by its full latency); the parity suite in
``tests/scale/`` measures and pins the documented tolerances.

Routes come from :class:`~repro.net.topology.RouteTable`, the torus's
one routing rule, which the per-packet router forwards by too (directly
or through :class:`~repro.recovery.manager.RecoveryManager`), so flow
paths, healthy or detoured, are bit-identical to the per-packet router's.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..apenet.buflist import BufferKind
from ..apenet.config import DEFAULT_CONFIG
from ..net.packet import MAX_PACKET_PAYLOAD, PACKET_HEADER_BYTES
from ..net.topology import RouteTable, TorusShape

__all__ = [
    "BulkTransfer",
    "TransferAggregates",
    "FlowCalibration",
    "FlowNetwork",
    "ParityReport",
    "calibrate",
    "compare_aggregates",
    "fragment_count",
    "last_fragment_bytes",
    "wire_bytes",
]

#: Fragment-count knots probed during calibration.  Base latency is exact
#: at every knot and linearly interpolated between them; beyond the last
#: knot the slope is the steady per-fragment RX service time, taken from
#: the last two (deep-pipeline) knots.
LATENCY_KNOTS: Tuple[int, ...] = (1, 2, 3, 4, 6, 9, 13, 17, 25, 33, 49, 65, 97, 129)

#: Payload-byte knots for single-fragment PUTs (the sub-4-KiB path is
#: visibly nonlinear: host-read request chunking, pipeline fill).
SINGLE_BYTE_KNOTS: Tuple[int, ...] = (64, 512, 1024, 2048, 3072, MAX_PACKET_PAYLOAD)

#: Last-fragment payload knots for multi-fragment PUTs (delta vs full,
#: probed at both a shallow (n=2) and a deep (n=9) pipeline and blended).
MULTI_LAST_KNOTS: Tuple[int, ...] = (64, 512, 1024, 2048, 3072, MAX_PACKET_PAYLOAD)

#: Fragment-count knots for the back-to-back occupancy probes.
OCCUPANCY_KNOTS: Tuple[int, ...] = (1, 9, 33)


# ---------------------------------------------------------------------------
# Shared transfer / aggregate types (used by both the flow and exact drivers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BulkTransfer:
    """One bulk RDMA PUT: *nbytes* from rank *src* to rank *dst*.

    ``start`` is the requested post time in ns after the common epoch
    (same-source transfers post sequentially, never earlier than this).
    """

    src: int
    dst: int
    nbytes: int
    start: float = 0.0
    src_kind: BufferKind = BufferKind.HOST
    dst_kind: BufferKind = BufferKind.HOST


@dataclass
class TransferAggregates:
    """Aggregate outcome of a batch of bulk transfers, mode-agnostic.

    The integer fields (``bytes_delivered``, ``link_bytes``,
    ``link_packets``) are the *lossless* aggregates: flow mode reproduces
    them bit-exactly.  ``completions`` (ns after the epoch, ``None`` for
    undeliverable transfers) and ``link_busy`` carry the documented
    tolerance.  Link keys are ``(src_rank, dim, direction)``.
    """

    bytes_delivered: int
    completions: Tuple[Optional[float], ...]
    link_bytes: Dict[Tuple[int, int, int], int]
    link_packets: Dict[Tuple[int, int, int], int]
    link_busy: Dict[Tuple[int, int, int], float]
    makespan: float


# ---------------------------------------------------------------------------
# Fragment arithmetic (shared, lossless)
# ---------------------------------------------------------------------------


def fragment_count(nbytes: int) -> int:
    """Number of wire packets a *nbytes* PUT fragments into (§IV.A)."""
    return max(1, math.ceil(nbytes / MAX_PACKET_PAYLOAD))


def last_fragment_bytes(nbytes: int) -> int:
    """Payload bytes of the final (possibly partial) fragment."""
    rem = nbytes % MAX_PACKET_PAYLOAD
    return MAX_PACKET_PAYLOAD if rem == 0 and nbytes > 0 else rem


def wire_bytes(nbytes: int) -> int:
    """Total bytes on every traversed link: payload + per-packet headers."""
    return nbytes + fragment_count(nbytes) * PACKET_HEADER_BYTES


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def _interp(knots: Sequence[int], values: Sequence[float], x: float, tail_slope: float) -> float:
    """Piecewise-linear through (knots, values); linear tail beyond the end."""
    if x >= knots[-1]:
        return values[-1] + (x - knots[-1]) * tail_slope
    if x <= knots[0]:
        return values[0]
    i = bisect.bisect_left(knots, x)
    if knots[i] == x:
        return values[i]
    lo, hi = knots[i - 1], knots[i]
    frac = (x - lo) / (hi - lo)
    return values[i - 1] + frac * (values[i] - values[i - 1])


@dataclass(frozen=True)
class FlowCalibration:
    """Probe-fitted latency/occupancy model for one (src_kind, dst_kind).

    All times in ns.  ``knot_times[i]`` is the exact one-hop completion
    latency of a ``LATENCY_KNOTS[i]``-fragment PUT with a full last
    fragment; ``single_byte_times`` covers the sub-4-KiB single-fragment
    curve, ``multi_last_delta`` the partial-last-fragment correction, and
    ``occ_times`` the back-to-back message gap.  ``hop_base`` is the
    store-and-forward constant per extra hop (link + router latency); the
    last fragment's wire serialisation is added per hop at evaluation
    time, which is what makes the probed n=9 hop gap reproduce exactly.
    """

    src_kind: BufferKind
    dst_kind: BufferKind
    bandwidth: float  # link bandwidth, bytes/ns (for hop serialisation)
    knots: Tuple[int, ...]
    knot_times: Tuple[float, ...]
    single_byte_knots: Tuple[int, ...]
    single_byte_times: Tuple[float, ...]
    multi_last_knots: Tuple[int, ...]
    multi_last_delta_shallow: Tuple[float, ...]  # probed at n=2
    multi_last_delta: Tuple[float, ...]  # probed at n=9 (deep pipeline)
    occ_knots: Tuple[int, ...]
    occ_times: Tuple[float, ...]
    occ_single_small: float  # back-to-back gap, n=1 at 512 B payload
    occ_tx_times: Tuple[float, ...]  # TX feed gap (same src, distinct dsts)
    occ_tx_single_small: float  # TX feed gap, n=1 at 512 B payload
    per_fragment: float  # steady RX service time per extra fragment
    hop_base: float  # per-extra-hop constant (link + router latency)

    # -- scalar model -------------------------------------------------------

    def _hop_cost(self, n: int, last: int) -> float:
        # Store-and-forward pacing: with n >= 2 fragments the *full* head
        # fragments pace every extra hop (the partial tail rides behind
        # them); a lone fragment paces itself.
        serial = MAX_PACKET_PAYLOAD if n > 1 else last
        return self.hop_base + (serial + PACKET_HEADER_BYTES) / self.bandwidth

    def completion_latency(self, n: int, last: int, hops: int) -> float:
        """Uncontended post-to-RX-completion latency of one PUT."""
        if n == 1:
            base = _interp(self.single_byte_knots, self.single_byte_times, last, 0.0)
        else:
            base = _interp(self.knots, self.knot_times, n, self.per_fragment)
            base += self._last_delta(n, last)
        return base + (hops - 1) * self._hop_cost(n, last)

    def _last_delta(self, n, last):
        deep = _interp(self.multi_last_knots, self.multi_last_delta, last, 0.0)
        shallow = _interp(self.multi_last_knots, self.multi_last_delta_shallow, last, 0.0)
        w = min(max((n - 2) / 7.0, 0.0), 1.0)
        return shallow + w * (deep - shallow)

    def occupancy(self, n: int, last: int) -> float:
        """Steady back-to-back gap between same-path PUTs (LogP ``g``)."""
        occ = _interp(self.occ_knots, self.occ_times, n, self.per_fragment)
        if n == 1:
            full = MAX_PACKET_PAYLOAD
            slope = (self.occ_times[0] - self.occ_single_small) / (full - 512)
            occ -= (full - last) * slope
        else:
            occ += self._last_delta(n, last)
        return max(occ, self.per_fragment)

    def tx_occupancy(self, n: int, last: int) -> float:
        """Source-side feed occupancy: the gap one PUT imposes on the next
        PUT from the same source (probed with distinct destinations, so
        downstream pacing is excluded)."""
        tx_tail = (self.occ_tx_times[-1] - self.occ_tx_times[-2]) / (
            self.occ_knots[-1] - self.occ_knots[-2]
        )
        occ = _interp(self.occ_knots, self.occ_tx_times, n, tx_tail)
        if n == 1:
            full = MAX_PACKET_PAYLOAD
            slope = (self.occ_tx_times[0] - self.occ_tx_single_small) / (full - 512)
            occ -= (full - last) * slope
        else:
            occ -= (MAX_PACKET_PAYLOAD - last) / self.bandwidth
        return max(occ, (last + PACKET_HEADER_BYTES) / self.bandwidth)

    # -- vectorised model (BFS alltoall batches) ----------------------------

    def completion_latency_array(
        self, nbytes: np.ndarray, hops: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`completion_latency` over payload/hop arrays."""
        nbytes = np.asarray(nbytes, dtype=np.int64)
        hops = np.asarray(hops, dtype=np.float64)
        n = np.maximum(1, -(-nbytes // MAX_PACKET_PAYLOAD))
        last = nbytes - (n - 1) * MAX_PACKET_PAYLOAD
        multi = np.interp(n, self.knots, self.knot_times)
        over = n > self.knots[-1]
        if np.any(over):
            multi = np.where(
                over,
                self.knot_times[-1] + (n - self.knots[-1]) * self.per_fragment,
                multi,
            )
        deep = np.interp(last, self.multi_last_knots, self.multi_last_delta)
        shallow = np.interp(last, self.multi_last_knots, self.multi_last_delta_shallow)
        w = np.clip((n - 2) / 7.0, 0.0, 1.0)
        multi = multi + shallow + w * (deep - shallow)
        single = np.interp(last, self.single_byte_knots, self.single_byte_times)
        base = np.where(n == 1, single, multi)
        serial = np.where(n > 1, MAX_PACKET_PAYLOAD, last)
        hop_cost = self.hop_base + (serial + PACKET_HEADER_BYTES) / self.bandwidth
        return base + (hops - 1) * hop_cost


_CAL_CACHE: Dict[Tuple[BufferKind, BufferKind], FlowCalibration] = {}


def calibrate(
    src_kind: BufferKind = BufferKind.HOST,
    dst_kind: BufferKind = BufferKind.HOST,
) -> FlowCalibration:
    """Fit a :class:`FlowCalibration` by probing the exact per-packet stack.

    Deterministic (the DES is seedless), so the result is memoised per
    ``(src_kind, dst_kind)``.  Probes run on 2- to 6-node tori and take a
    few tiny simulations each.
    """
    key = (src_kind, dst_kind)
    cached = _CAL_CACHE.get(key)
    if cached is not None:
        return cached

    from .exact import run_exact  # lazy: exact.py imports this module's types

    full = MAX_PACKET_PAYLOAD
    half = MAX_PACKET_PAYLOAD // 2

    def probe(dims, transfers):
        agg = run_exact(dims, transfers)
        return agg.completions

    def one(dims, src, dst, nbytes):
        (t,) = probe(
            dims, [BulkTransfer(src, dst, nbytes, src_kind=src_kind, dst_kind=dst_kind)]
        )
        return t

    knot_times = tuple(one((2, 1, 1), 0, 1, n * full) for n in LATENCY_KNOTS)
    per_fragment = (knot_times[-1] - knot_times[-2]) / (
        LATENCY_KNOTS[-1] - LATENCY_KNOTS[-2]
    )

    # Single-fragment byte curve (shares its 4-KiB endpoint with knot 1).
    single_byte_times = tuple(
        one((2, 1, 1), 0, 1, b) if b != full else knot_times[0]
        for b in SINGLE_BYTE_KNOTS
    )

    # Partial-last-fragment correction for multi-fragment PUTs: deltas
    # against the full-last-fragment knots at a shallow (n=2) and a deep
    # (n=9) pipeline; intermediate depths blend linearly.
    base2 = knot_times[LATENCY_KNOTS.index(2)]
    base9 = knot_times[LATENCY_KNOTS.index(9)]
    multi_last_delta_shallow = tuple(
        (one((2, 1, 1), 0, 1, full + b) - base2) if b != full else 0.0
        for b in MULTI_LAST_KNOTS
    )
    multi_last_delta = tuple(
        (one((2, 1, 1), 0, 1, 8 * full + b) - base9) if b != full else 0.0
        for b in MULTI_LAST_KNOTS
    )

    # Hop term from the 2-hop vs 3-hop gap on line tori (intercept is the
    # 1-hop knot, so linearity across 1->2->3 hops is probed, not assumed).
    # The measured gap is latency + last-fragment store-and-forward; keep
    # the constant part and re-add the size-dependent serialisation at
    # evaluation time.
    t_h2 = one((4, 1, 1), 0, 2, 9 * full)
    t_h3 = one((6, 1, 1), 0, 3, 9 * full)
    hop_base = (t_h3 - t_h2) - (full + PACKET_HEADER_BYTES) / DEFAULT_CONFIG.link_bandwidth

    # Occupancy: two equal PUTs from rank 0 posted back to back; the
    # completion gap is the steady per-message spacing.  Both to rank 1 of
    # the 2-node ring it is the whole path's; to ranks 1 and 2 (each one
    # hop on a 2x2 mesh) it isolates the sender-side TX feed cost from any
    # downstream pacing.
    def gap(dims, second_dst, nbytes):
        c0, c1 = probe(
            dims,
            [
                BulkTransfer(0, 1, nbytes, src_kind=src_kind, dst_kind=dst_kind),
                BulkTransfer(0, second_dst, nbytes, src_kind=src_kind, dst_kind=dst_kind),
            ],
        )
        return c1 - c0

    occ_times = tuple(gap((2, 1, 1), 1, n * full) for n in OCCUPANCY_KNOTS)
    occ_single_small = gap((2, 1, 1), 1, 512)
    occ_tx_times = tuple(gap((2, 2, 1), 2, n * full) for n in OCCUPANCY_KNOTS)
    occ_tx_single_small = gap((2, 2, 1), 2, 512)

    cal = FlowCalibration(
        src_kind=src_kind,
        dst_kind=dst_kind,
        bandwidth=DEFAULT_CONFIG.link_bandwidth,
        knots=LATENCY_KNOTS,
        knot_times=knot_times,
        single_byte_knots=SINGLE_BYTE_KNOTS,
        single_byte_times=single_byte_times,
        multi_last_knots=MULTI_LAST_KNOTS,
        multi_last_delta_shallow=multi_last_delta_shallow,
        multi_last_delta=multi_last_delta,
        occ_knots=OCCUPANCY_KNOTS,
        occ_times=occ_times,
        occ_single_small=occ_single_small,
        occ_tx_times=occ_tx_times,
        occ_tx_single_small=occ_tx_single_small,
        per_fragment=per_fragment,
        hop_base=hop_base,
    )
    _CAL_CACHE[key] = cal
    return cal


# ---------------------------------------------------------------------------
# The flow engine
# ---------------------------------------------------------------------------


class FlowNetwork:
    """Batched bulk-transfer simulator over one torus.

    Feed it a batch through :meth:`run_transfers`, which returns the
    batch's aggregates; byte/packet/route aggregates are bit-identical to
    the exact driver, completion times carry the calibrated model's
    documented tolerance.  No DES events are created — a 16^3 torus costs
    dictionary updates, not packets.  Each batch starts on an idle
    network: the instance keeps only the shape and routes.
    """

    def __init__(self, dims: Tuple[int, int, int], dead_links: Iterable = ()):
        self.shape = TorusShape(*dims)
        self.routes = RouteTable(self.shape, dead_links)
        self._obs_sim = None

    # -- plumbing -----------------------------------------------------------

    def _obs_scope(self):
        # Flow spans: when a TraceSession is active, anchor a (zero-event)
        # simulator so span_at() can record flow timelines with the model's
        # own computed times.  Costs one attribute test when tracing is off.
        from ..sim import core as _kernel

        if _kernel._TRACE_SESSION is None:
            return None
        if self._obs_sim is None:
            from ..sim import Simulator

            self._obs_sim = Simulator()
        return self._obs_sim._obs

    # -- the engine ---------------------------------------------------------
    #
    # Two-phase schedule, mirroring the hardware's structure:
    #
    #   phase 1 (TX feed): each source's PUTs post sequentially; a PUT
    #   starts *injecting* once the source's previous feed finished
    #   (``inj = max(start, tx_free[src])``), holding the TX for its
    #   probed feed occupancy — much shorter than the end-to-end latency.
    #
    #   phase 2 (fabric/RX): flows are served in deterministic injection
    #   order.  Each RX endpoint and link is an independent FIFO queue:
    #   completion = max(inj + T_lat,
    #                    rx_free + O_rx,
    #                    max(link_free, inj) + O_link + t_frag).
    #   The RX stays busy with this flow until its completion; links free
    #   after their serialisation share.
    #
    # Back-to-back same-path sequences reproduce the probed gap exactly;
    # crossing traffic queues by load, not by full latency, so cascades
    # cannot build transitively the way a naive critical-path model would.

    def _serve(self, admitted, free: Dict[tuple, float]) -> float:
        """Phase 2 for one admitted transfer: fabric/RX queues, completion.

        *free* maps each RX endpoint and link to the time the batch's
        earlier flows release it.
        """
        inj, _seq, tr, route, cal, n, last, link_occ = admitted
        latency = cal.completion_latency(n, last, len(route))
        completion = inj + latency
        rx_key = ("rx", tr.dst)
        rx_free = free.get(rx_key)
        if rx_free is not None:
            completion = max(completion, rx_free + cal.occupancy(n, last))
        tail = cal.per_fragment
        for hop in route:
            link_free = free.get(("link", hop), 0.0)
            completion = max(completion, max(link_free, inj) + link_occ + tail)
            free[("link", hop)] = max(link_free, inj) + link_occ
        free[rx_key] = completion
        scope = self._obs_scope()
        if scope is not None:
            scope.span_at(
                "flow",
                "bulk_put",
                inj,
                completion,
                src=tr.src,
                dst=tr.dst,
                nbytes=tr.nbytes,
                fragments=n,
                hops=len(route),
            )
        return completion

    def run_transfers(self, transfers: Sequence[BulkTransfer]) -> TransferAggregates:
        """Schedule a batch (posted like the exact driver posts) and aggregate.

        Sources post in ``(start, index)`` order; the fabric serves in
        deterministic ``(injection time, post index)`` order.  The batch
        is the unit: no link load or resource time carries over from an
        earlier call, so the same batch always gives the same aggregates.
        """
        link_bytes: Dict[Tuple[int, int, int], int] = {}
        link_packets: Dict[Tuple[int, int, int], int] = {}
        link_busy: Dict[Tuple[int, int, int], float] = {}
        tx_free: Dict[int, float] = {}  # src rank -> TX feed free
        post_order = sorted(
            range(len(transfers)), key=lambda i: (transfers[i].start, i)
        )
        admitted = []
        for seq, i in enumerate(post_order):
            # Phase 1 for one transfer: route, accounting, TX injection time.
            tr = transfers[i]
            route = self.routes.path(tr.src, tr.dst)
            if route is None:
                continue
            n = fragment_count(tr.nbytes)
            last = last_fragment_bytes(tr.nbytes)
            wire = wire_bytes(tr.nbytes)
            link_occ = wire / DEFAULT_CONFIG.link_bandwidth
            for hop in route:
                link_bytes[hop] = link_bytes.get(hop, 0) + wire
                link_packets[hop] = link_packets.get(hop, 0) + n
                link_busy[hop] = link_busy.get(hop, 0.0) + link_occ
            cal = calibrate(tr.src_kind, tr.dst_kind)
            inj = max(tr.start, tx_free.get(tr.src, 0.0))
            tx_free[tr.src] = inj + cal.tx_occupancy(n, last)
            admitted.append(((inj, seq, tr, route, cal, n, last, link_occ), i))
        completions: List[Optional[float]] = [None] * len(transfers)
        free: Dict[tuple, float] = {}  # rx/link resource -> free time
        for item, i in sorted(admitted, key=lambda pair: (pair[0][0], pair[0][1])):
            completions[i] = self._serve(item, free)
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


# ---------------------------------------------------------------------------
# Parity comparison
# ---------------------------------------------------------------------------


@dataclass
class ParityReport:
    """Exact-vs-flow comparison of two :class:`TransferAggregates`.

    The boolean fields are the lossless contract (must be exactly True);
    the ``*_rel`` fields are the worst relative deviations of the
    toleranced quantities.
    """

    bytes_exact: bool
    link_bytes_exact: bool
    link_packets_exact: bool
    delivered_set_exact: bool
    completion_max_rel: float
    busy_max_rel: float
    makespan_rel: float

    def lossless_ok(self) -> bool:
        return (
            self.bytes_exact
            and self.link_bytes_exact
            and self.link_packets_exact
            and self.delivered_set_exact
        )

    def within(self, time_rtol: float, busy_rtol: float = 1e-6) -> bool:
        return (
            self.lossless_ok()
            and self.completion_max_rel <= time_rtol
            and self.busy_max_rel <= busy_rtol
            and abs(self.makespan_rel) <= time_rtol
        )


def _max_rel(pairs) -> float:
    worst = 0.0
    for a, b in pairs:
        denom = max(abs(a), abs(b), 1e-12)
        worst = max(worst, abs(a - b) / denom)
    return worst


def compare_aggregates(
    exact: TransferAggregates, flow: TransferAggregates
) -> ParityReport:
    """Build the parity report: exact driver vs flow engine aggregates."""
    exact_links = {k: v for k, v in exact.link_bytes.items() if v}
    flow_links = {k: v for k, v in flow.link_bytes.items() if v}
    exact_pkts = {k: v for k, v in exact.link_packets.items() if v}
    flow_pkts = {k: v for k, v in flow.link_packets.items() if v}
    delivered_e = tuple(c is not None for c in exact.completions)
    delivered_f = tuple(c is not None for c in flow.completions)
    completion_pairs = [
        (a, b)
        for a, b in zip(exact.completions, flow.completions)
        if a is not None and b is not None
    ]
    busy_pairs = [
        (exact.link_busy.get(k, 0.0), flow.link_busy.get(k, 0.0))
        for k in set(exact_links) | set(flow_links)
    ]
    makespan_rel = (
        (flow.makespan - exact.makespan) / exact.makespan if exact.makespan else 0.0
    )
    return ParityReport(
        bytes_exact=exact.bytes_delivered == flow.bytes_delivered,
        link_bytes_exact=exact_links == flow_links,
        link_packets_exact=exact_pkts == flow_pkts,
        delivered_set_exact=delivered_e == delivered_f,
        completion_max_rel=_max_rel(completion_pairs),
        busy_max_rel=_max_rel(busy_pairs),
        makespan_rel=makespan_rel,
    )
