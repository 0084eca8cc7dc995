"""Extension experiments: measurements the paper mentions but omits."""

from __future__ import annotations


from ...apenet.buflist import BufferKind
from ...apps.hsg import HsgConfig, grid_for_ranks, run_hsg
from ...cuda.config import CudaCosts
from ...units import kib, mib, us
from ..harness import ExperimentResult, register
from ..microbench import (
    bidirectional_bandwidth,
    pingpong_latency,
    staged_pingpong_latency,
    unidirectional_bandwidth,
)
from ..tables import render_table

H, G = BufferKind.HOST, BufferKind.GPU


@register("ext_bidir", "Bi-directional bandwidth (the measurement §IV omits)", "§IV prediction")
def run_bidir(quick: bool = True) -> ExperimentResult:
    """"the APEnet+ bi-directional bandwidth ... will reflect a similar
    behaviour [to the loop-back plot]" — test the prediction."""
    rows = []
    comparisons = []
    for label, s, d in (("H-H", H, H), ("G-G", G, G)):
        uni = unidirectional_bandwidth(s, d, mib(1), n_messages=5).MBps
        bi = bidirectional_bandwidth(s, d, mib(1), n_messages=5).MBps
        loop = unidirectional_bandwidth(s, d, mib(1), n_messages=5, loopback=True).MBps
        rows.append((label, round(uni), round(bi), round(bi / 2), round(loop)))
        comparisons.append(
            (f"{label} bidir/2 vs loop-back", bi / 2, loop, "MB/s")
        )
    rendered = render_table(
        ["combo", "uni MB/s", "bidir aggregate", "bidir per-direction", "loop-back"],
        rows,
        title="Extension — bi-directional bandwidth\n"
        "(the paper predicts per-direction ~= loop-back: each card then runs\n"
        "its TX and RX tasks simultaneously, exactly as in the loop-back test)",
    )
    return ExperimentResult("ext_bidir", "Bi-directional bandwidth", rendered, comparisons, rows)


@register("ablation_memcpy", "Staging penalty vs cudaMemcpy overhead", "DESIGN §6.3")
def run_memcpy(quick: bool = True) -> ExperimentResult:
    """The P2P-vs-staging latency gap IS the sync-memcpy cost: sweep the
    overhead through the CUDA runtimes and watch staging track it 1:1
    while P2P does not move."""
    rows = []
    p2p = pingpong_latency(G, G, 32).usec  # no memcpy on this path
    for ov_us in (2.0, 5.0, 10.0, 20.0):
        costs = CudaCosts(sync_memcpy_overhead=us(ov_us))
        staged = staged_pingpong_latency(32, cuda_costs=costs).usec
        rows.append((f"{ov_us:.0f} us", round(p2p, 2), round(staged, 2)))
    rendered = render_table(
        ["sync memcpy overhead", "P2P latency us", "staging latency us"],
        rows,
        title="Ablation — the staging penalty IS the memcpy overhead\n"
        "(P2P is memcpy-free and constant; staging tracks the overhead 1:1)",
    )
    return ExperimentResult("ablation_memcpy", "memcpy-overhead ablation", rendered, [], rows)


@register("ablation_cache", "HSG speedup with and without the cache-residency model", "DESIGN §6.5")
def run_cache(quick: bool = True) -> ExperimentResult:
    """Fig 11's super-linear speedup needs the volume-dependent rate."""
    sweeps = 1
    rows = []
    base = run_hsg(HsgConfig(L=256, np_=1, sweeps=sweeps))
    for np_ in (2, 4, 8):
        r = run_hsg(HsgConfig(L=256, np_=np_, sweeps=sweeps))
        measured = base.ttot_ps / r.ttot_ps
        # Flat-rate model: every rank computes at the NP=1 per-spin rate,
        # so the bulk shrinks exactly 1/NP and speedup can never pass NP.
        flat_bulk = 921.0 / np_
        flat_speedup = 921.0 / max(flat_bulk, r.tbnd_tnet_ps)
        rows.append((np_, round(measured, 2), round(min(flat_speedup, np_), 2)))
    rendered = render_table(
        ["NP", "speedup (cache model)", "speedup (flat rate)"],
        rows,
        title="Ablation — cache-residency compute rate\n"
        "(without it, speedup can never exceed NP; with it, smaller slabs\n"
        "run faster per spin and Fig 11's super-linearity appears)",
    )
    return ExperimentResult("ablation_cache", "cache-model ablation", rendered, [], rows)


@register("ext_hsg2d", "Multi-dimensional HSG decomposition (§V.D outlook)", "§V.D prediction")
def run_hsg2d(quick: bool = True) -> ExperimentResult:
    """"This advantage could increase for a multi-dimensional domain-
    decomposition, where the size of the exchanged messages shrinks in the
    strong scaling" — implement it and check."""
    sweeps = 2
    rows = []
    comparisons = []
    for np_ in (4, 8):
        r1 = run_hsg(HsgConfig(L=256, np_=np_, sweeps=sweeps))
        r2 = run_hsg(HsgConfig(L=256, np_=np_, grid=grid_for_ranks(np_), sweeps=sweeps))
        rows.append(
            (np_, round(r1.tnet_ps, 1), round(r2.tnet_ps, 1),
             round(r1.ttot_ps), round(r2.ttot_ps))
        )
        if np_ == 8:
            comparisons.append(
                ("2D/1D Tnet ratio at NP=8", r2.tnet_ps / r1.tnet_ps, None, "x")
            )
    rendered = render_table(
        ["NP", "1-D Tnet ps", "2-D Tnet ps", "1-D Ttot", "2-D Ttot"],
        rows,
        title="Extension — 1-D slabs vs 2-D pencils at L=256\n"
        "(the 2-D faces shrink with NP: the advantage the paper predicts\n"
        "appears at NP=8 and grows with deeper strong scaling)",
    )
    return ExperimentResult("ext_hsg2d", "2-D HSG decomposition", rendered, comparisons, rows)


@register("ext_get", "RDMA GET latency (the read half of the RDMA model)", "§III.B model")
def run_get(quick: bool = True) -> ExperimentResult:
    """GET = request + firmware PUT back: ~ one PUT round trip."""
    from ..microbench import make_cluster

    rows = []
    for label, remote_gpu in (("host source", False), ("GPU source", True)):
        sim, cluster = make_cluster(2, 1)
        a, b = cluster.nodes
        if remote_gpu:
            remote = b.gpu.alloc(kib(8))
        else:
            remote = b.runtime.host_alloc(kib(8))
        local = a.runtime.host_alloc(kib(8))
        out = {}

        def proc():
            yield from b.endpoint.register(remote.addr, kib(8))
            yield from a.endpoint.register(local.addr, kib(8))
            t0 = sim.now
            yield from a.endpoint.get(1, remote.addr, local.addr, 32)
            out["small"] = sim.now - t0
            t0 = sim.now
            yield from a.endpoint.get(1, remote.addr, local.addr, kib(8))
            out["big"] = sim.now - t0

        sim.run_process(proc())
        pp = pingpong_latency(H, G if remote_gpu else H, 32)
        rows.append(
            (label, round(out["small"] / 1000, 2), round(out["big"] / 1000, 2),
             round(2 * pp.usec, 2))
        )
    rendered = render_table(
        ["remote buffer", "GET 32B us", "GET 8KiB us", "2x one-way PUT us"],
        rows,
        title="Extension — RDMA GET latency\n"
        "(a GET costs one round trip: the request one way, the data PUT back)",
    )
    return ExperimentResult("ext_get", "RDMA GET latency", rendered, [], rows)
