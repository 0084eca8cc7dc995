"""Fig 3 — PCIe bus-analyzer timing of one GPU-buffer transmission.

An interposer (bus analyzer) on the GPU's PCIe link while the card
transmits a 4 MB GPU buffer with the v2 engine and a 32 KB prefetch
window: the paper reads off the engine's initial overhead (~3 µs to the
first read request), the GPU's head latency (1.8 µs), the sustained
1536 MB/s response stream, and the steady request rate.
"""

from __future__ import annotations

from ...apenet.buflist import BufferKind
from ...apenet.config import GpuTxVersion
from ...gpu.p2p import REQUEST_DESCRIPTOR_BYTES
from ...pcie.analyzer import BusAnalyzer
from ...units import KiB, mib
from ..harness import ExperimentResult, register
from ..microbench import make_cluster
from ..tables import fmt_ratio, render_table

PAPER = {
    "initial delay to first request (us)": 3.0,
    "GPU head latency (us)": 1.8,
    "sustained data rate (MB/s)": 1536.0,
    "request interval (us)": 2.67,  # one 4 KB chunk per 4096/1536 us
}


@register("fig3", "PCIe bus-analyzer timings (GPU TX, v2/32K)", "Fig 3")
def run(quick: bool = True) -> ExperimentResult:
    """Capture and analyse the transaction trace of a 4 MB GPU put."""
    size = mib(1) if quick else mib(4)
    sim, cluster = make_cluster(
        1, 1, use_plx=True, flush_tx=True,
        gpu_tx_version=GpuTxVersion.V2, prefetch_window=32 * KiB,
    )
    node = cluster.nodes[0]
    analyzer = BusAnalyzer(sim)
    analyzer.attach(node.platform.fabric.link_of(node.gpu.name))
    card_tap = BusAnalyzer(sim, "card-tap")
    card_tap.attach(node.platform.fabric.link_of(node.card.name))
    src = node.gpu.alloc(size).addr

    def proc():
        yield from node.endpoint.register(src, size)
        yield from node.endpoint.put(
            0, src, 0xDEAD_0000, size, src_kind=BufferKind.GPU
        )

    sim.run_process(proc())

    # Requests: descriptor-sized writes toward the GPU ("down" direction);
    # responses: data writes from the GPU ("up").
    requests = [
        r for r in analyzer.records
        if r.direction == "down" and r.payload_bytes == REQUEST_DESCRIPTOR_BYTES
    ]
    responses = [r for r in analyzer.records if r.direction == "up" and r.payload_bytes]
    # "Transaction 1 to 2": from the descriptor doorbell crossing the
    # card's link to the first read request toward the GPU.
    doorbell = next(r for r in card_tap.records if r.direction == "down")
    initial_delay = (requests[0].time - doorbell.time) / 1000.0
    head_latency = (responses[0].time - requests[0].time) / 1000.0
    data_bytes = sum(r.payload_bytes for r in responses[1:])
    data_rate = data_bytes / (responses[-1].time - responses[0].time) * 1000.0
    gaps = [b.time - a.time for a, b in zip(requests, requests[1:])]
    # Steady-state request interval: skip the initial window burst.
    tail = gaps[len(gaps) // 2 :]
    req_interval = sum(tail) / len(tail) / 1000.0

    measured = {
        "initial delay to first request (us)": initial_delay,
        "GPU head latency (us)": head_latency,
        "sustained data rate (MB/s)": data_rate,
        "request interval (us)": req_interval,
    }
    rows = [
        (k, measured[k], PAPER[k], fmt_ratio(measured[k], PAPER[k])) for k in PAPER
    ]
    rendered = render_table(
        ["Quantity", "Measured", "Paper", "dev"], rows,
        title=f"Fig 3 — bus-analyzer trace of a {size // mib(1)} MB GPU transmission "
        f"({len(requests)} read requests observed)",
    )
    return ExperimentResult(
        "fig3", "PCIe bus-analyzer timings", rendered,
        comparisons=[(k, measured[k], PAPER[k], "") for k in PAPER],
        data={"requests": len(requests), "responses": len(responses)},
    )
