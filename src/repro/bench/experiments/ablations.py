"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's artefacts: each isolates one mechanism the
reproduction depends on, plus the paper's own future-work items
(hardware-accelerated RX, BAR1-based transmission, larger tori).
"""

from __future__ import annotations

from dataclasses import replace

from ...apenet.buflist import BufferKind
from ...apenet.config import GpuTxVersion
from ...apps.hsg import HsgConfig, run_hsg
from ...gpu.specs import FERMI_2050, KEPLER_K20
from ...net.topology import TorusShape
from ...units import KiB, Gbps, mib, us
from ..harness import ExperimentResult, register
from ..microbench import (
    loopback_read_bandwidth,
    pingpong_latency,
    unidirectional_bandwidth,
)
from ..tables import render_table

H, G = BufferKind.HOST, BufferKind.GPU


@register("ablation_window", "Prefetch window vs GPU head latency", "DESIGN §6.1")
def run_window(quick: bool = True) -> ExperimentResult:
    """Fig 4's knee must follow W/(head + W/rate): sweep both knobs."""
    rows = []
    for head_us in (0.6, 1.8, 3.6):
        spec = replace(FERMI_2050, p2p_read_head_latency=us(head_us))
        for w in (4, 8, 32):
            r = loopback_read_bandwidth(
                G, mib(1), n_messages=4, gpu_spec=spec,
                gpu_tx_version=GpuTxVersion.V2, prefetch_window=w * KiB,
            )
            predicted = (w * KiB) / (us(head_us) + (w * KiB) / 1.536) * 1000
            rows.append((f"{head_us}us", f"{w}K", round(r.MBps), round(predicted)))
    rendered = render_table(
        ["head latency", "window", "measured MB/s", "W/(head+W/rate)"],
        rows, title="Ablation — prefetch window vs head latency",
    )
    return ExperimentResult("ablation_window", "Prefetch window ablation", rendered, [], rows)


@register("ablation_nios", "Nios II as the bottleneck (RX HW acceleration)", "DESIGN §6.2 / §V.B future work")
def run_nios(quick: bool = True) -> ExperimentResult:
    """The paper's ending: what do hardware RX blocks buy?"""
    rows = []
    comparisons = []
    for label, kw in (
        ("firmware RX (paper)", {}),
        ("HW-accelerated RX (future work)", {"rx_hw_accel": True}),
    ):
        hh = unidirectional_bandwidth(H, H, mib(1), n_messages=4, loopback=True, **kw)
        gg = unidirectional_bandwidth(G, G, mib(1), n_messages=4, loopback=True, **kw)
        lat = pingpong_latency(H, H, 32, **kw)
        rows.append((label, round(hh.MBps), round(gg.MBps), round(lat.usec, 2)))
        comparisons.append((f"H-H loopback, {label}", hh.MBps, None, "MB/s"))
    rendered = render_table(
        ["RX path", "H-H loop-back MB/s", "G-G loop-back MB/s", "H-H latency us"],
        rows, title="Ablation — RX hardware acceleration",
    )
    return ExperimentResult("ablation_nios", "RX acceleration ablation", rendered, comparisons, rows)


@register("ablation_bar1", "BAR1-based transmission vs the mailbox protocol", "paper conclusions")
def run_bar1(quick: bool = True) -> ExperimentResult:
    """"On Kepler, the BAR1 technique seems more promising"."""
    rows = []
    comparisons = []
    for spec, gen in ((FERMI_2050, "Fermi"), (KEPLER_K20, "Kepler")):
        p2p = loopback_read_bandwidth(
            G, mib(1), n_messages=4, gpu_spec=spec, use_plx=True
        ).MBps
        bar1 = loopback_read_bandwidth(
            G, mib(1), n_messages=4, gpu_spec=spec, use_plx=True, gpu_tx_method="bar1"
        ).MBps
        rows.append((gen, round(p2p), round(bar1)))
        comparisons.append((f"{gen} BAR1-TX", bar1, 150.0 if gen == "Fermi" else 1600.0, "MB/s"))
    rendered = render_table(
        ["GPU", "mailbox P2P MB/s", "BAR1-TX MB/s"],
        rows,
        title="Ablation — TX method by GPU generation\n"
        "(Fermi: BAR1 hopeless; Kepler: BAR1 matches P2P with simpler HW)",
    )
    return ExperimentResult("ablation_bar1", "BAR1 TX ablation", rendered, comparisons, rows)


@register("ablation_torus", "Torus link speed under HSG halo traffic", "DESIGN §6.4")
def run_torus(quick: bool = True) -> ExperimentResult:
    """Sweep the link bitstream: when do wires matter vs the Nios II?"""
    rows = []
    for gbps in (10, 20, 28, 56):
        r = run_hsg(
            HsgConfig(L=256, np_=4, sweeps=2, link_bandwidth=Gbps(gbps))
        )
        rows.append((f"{gbps} Gbps", round(r.ttot_ps), round(r.tnet_ps)))
    rendered = render_table(
        ["link speed", "Ttot ps/spin", "Tnet ps/spin"],
        rows,
        title="Ablation — HSG (L=256, NP=4) vs torus link speed\n"
        "(beyond ~20 Gbps the RX firmware, not the wire, sets Tnet)",
    )
    return ExperimentResult("ablation_torus", "Torus link-speed ablation", rendered, [], rows)


@register("ablation_scaleout", "Beyond 8 nodes: the promised 16/24-node systems", "§VI")
def run_scaleout(quick: bool = True) -> ExperimentResult:
    """"we will be able to scale up to 16/24 nodes" — simulate them now."""
    from ...net.cluster import build_apenet_cluster
    from ...sim import Simulator

    rows = []
    shapes = [(2, 1, 1), (4, 2, 1), (4, 4, 1)] if quick else [
        (2, 1, 1), (4, 2, 1), (4, 4, 1), (4, 3, 2),
    ]
    for dims in shapes:
        shape = TorusShape(*dims)
        sim = Simulator()
        cluster = build_apenet_cluster(sim, shape)
        # All-pairs mean hop count of the routes the routers take.
        routes = cluster.nodes[0].card.router.routes
        n = shape.size
        hops = [len(routes.path(a, b)) for a in range(n) for b in range(n) if a != b]
        mean_hops = sum(hops) / len(hops)
        # Measured ping-pong between the two most distant ranks.
        far = max(range(n), key=lambda r: len(routes.path(0, r)))
        a, b = cluster.nodes[0], cluster.nodes[far]
        ha = a.runtime.host_alloc(64)
        hb = b.runtime.host_alloc(64)
        lat = {}

        def node_b():
            yield from b.endpoint.register(hb.addr, 64)
            yield from b.endpoint.wait_event()
            yield from b.endpoint.put(0, hb.addr, ha.addr, 32, src_kind=BufferKind.HOST)

        def node_a():
            yield from a.endpoint.register(ha.addr, 64)
            yield sim.timeout(us(10))
            t0 = sim.now
            yield from a.endpoint.put(far, ha.addr, hb.addr, 32, src_kind=BufferKind.HOST)
            yield from a.endpoint.wait_event()
            lat["half_rtt"] = (sim.now - t0) / 2

        sim.process(node_b())
        sim.process(node_a())
        sim.run()
        rows.append(
            (f"{dims[0]}x{dims[1]}x{dims[2]}", n, round(mean_hops, 2),
             round(lat["half_rtt"] / 1000, 2))
        )
    rendered = render_table(
        ["torus", "nodes", "mean hops", "max-distance latency us"],
        rows, title="Ablation — scaling the torus to 16/24 nodes",
    )
    return ExperimentResult("ablation_scaleout", "Torus scale-out", rendered, [], rows)
