"""Beyond the paper — TEPS-vs-nodes on large tori via the flow model.

The paper's BFS stops at 12 nodes (Table IV / Fig 12); ROADMAP item 1
asks what the interconnect does at 8^3 .. 16^3.  This experiment runs
the :mod:`repro.scale` flow-mode BFS over a ladder of tori with recovery
enabled (one dead +X link at the origin, traffic detoured exactly as the
recovery router would) and reports the TEPS curve, plus an in-sweep
**parity probe**: a golden bulk-transfer scenario executed through both
the exact per-packet stack and the batched flow engine, with the
byte/route aggregates required to match bit-exactly and completion
times within :data:`PARITY_TIME_RTOL`.

Everything in ``comparisons`` is deterministic (model time, not wall
time), so the golden suite pins every row exactly and ``--jobs 1`` vs
``--jobs 4`` sweeps are bit-identical.  The raw rows land in
``data["scale_bench"]``, which the runner exports as ``BENCH_scale.json``
for the ``scripts/check_bench.py --scale`` gate.
"""

from __future__ import annotations

from dataclasses import asdict

from ...scale import BulkTransfer, FlowNetwork, compare_aggregates, run_exact
from ...scale.bfs import run_scale_bfs
from ...units import us
from ..harness import ExperimentResult, register
from ..tables import render_table

__all__ = ["run_scale", "parity_probe", "CONFIGS_QUICK", "CONFIGS_FULL"]

#: Relative completion-time tolerance for the (staggered, uncontended)
#: parity scenario.  Measured worst case is 1.9e-4; see EXPERIMENTS.md
#: for the full tolerance envelope by traffic class.
PARITY_TIME_RTOL = 2e-3

#: Recovery-enabled fault: one dead +X link at the origin, present in
#: every BFS config and in the parity scenario.
DEAD_LINKS = ((0, 0, 1),)

#: (dims, graph scale) ladder.  Quick stays within the tier-1 CI budget
#: (the 12^3 row is the acceptance config); full extends to 16^3 at
#: graph500-class sizes for the nightly sweep.
CONFIGS_QUICK = (
    ((4, 4, 4), 12),
    ((6, 6, 6), 14),
    ((8, 8, 8), 16),
    ((12, 12, 12), 16),
)
CONFIGS_FULL = (
    ((4, 4, 4), 12),
    ((6, 6, 6), 14),
    ((8, 8, 8), 16),
    ((12, 12, 12), 18),
    ((16, 16, 16), 20),
)

#: Configs small enough that their rows are pinned by golden tests
#: (tests/bench/test_golden_scale.py) and by the committed baseline.
GOLDEN_DIMS = ((4, 4, 4), (6, 6, 6))


def parity_probe() -> dict:
    """Exact-vs-flow parity on the golden 3^3 scenario; returns a report.

    Six staggered transfers on a 3x3x3 torus with the standard dead
    link: multi-fragment H-H hauls, a partial last fragment, a small
    single-fragment PUT, and a route that must detour around the dead
    hop.  Staggering keeps flows non-overlapping, which is the traffic
    class where the flow model is tightest (documented tolerance
    :data:`PARITY_TIME_RTOL`); the lossless aggregates (bytes, per-link
    wire bytes and packet counts, delivered set, hop routes) must agree
    bit-exactly.
    """
    from ...apenet.buflist import BufferKind

    dims = (3, 3, 3)
    transfers = [
        BulkTransfer(0, 13, 8192, 0.0),  # detours around the dead +X hop
        BulkTransfer(1, 26, 5000, us(150.0)),  # partial last fragment
        BulkTransfer(
            2, 10, 2048, us(300.0),
            src_kind=BufferKind.GPU, dst_kind=BufferKind.GPU,
        ),
        BulkTransfer(14, 3, 65536, us(450.0)),  # 16-fragment haul
        BulkTransfer(5, 22, 300, us(700.0)),  # sub-fragment payload
        BulkTransfer(9, 4, 12000, us(850.0)),
    ]
    exact = run_exact(dims, transfers, dead_links=DEAD_LINKS)
    net = FlowNetwork(dims, dead_links=DEAD_LINKS)
    flow = net.run_transfers(transfers)
    report = compare_aggregates(exact, flow)
    return {
        "dims": list(dims),
        "n_transfers": len(transfers),
        "lossless_ok": report.lossless_ok(),
        "within_tolerance": report.within(PARITY_TIME_RTOL),
        "completion_max_rel": report.completion_max_rel,
        "busy_max_rel": report.busy_max_rel,
        "makespan_rel": report.makespan_rel,
        "time_rtol": PARITY_TIME_RTOL,
    }


@register("scale", "TEPS-vs-nodes beyond the paper (batched flow mode)", "ROADMAP 1")
def run_scale(quick: bool = True) -> ExperimentResult:
    """TEPS curve on 4^3 .. 16^3 tori with recovery enabled, flow mode.

    Each row is a distributed BFS (R-MAT graph, one rank per torus node;
    ``shards=4`` is only recorded, it changes no number) whose
    communication cost comes from the probe-calibrated flow model; the
    in-sweep parity probe certifies that model against the exact
    per-packet reference.
    """
    configs = CONFIGS_QUICK if quick else CONFIGS_FULL
    parity = parity_probe()

    rows = []
    bench_rows = []
    comparisons = [
        (
            "parity: lossless aggregates bit-exact",
            1.0 if parity["lossless_ok"] else 0.0,
            1.0,
            "bool",
        ),
        (
            "parity: completions within tolerance",
            1.0 if parity["within_tolerance"] else 0.0,
            1.0,
            "bool",
        ),
        ("parity: completion max rel dev", parity["completion_max_rel"], None, "rel"),
    ]
    for dims, graph_scale in configs:
        res = run_scale_bfs(
            dims, graph_scale, seed=1, dead_links=DEAD_LINKS, shards=4
        )
        label = f"{dims[0]}^3"
        rows.append(
            (
                label,
                res.n_ranks,
                graph_scale,
                res.n_levels,
                res.reached,
                f"{res.teps:.4e}",
                f"{res.total_time_ns / 1e6:.3f}",
                f"{res.comm_bytes / 1e6:.2f}",
            )
        )
        comparisons.append((f"TEPS {label} (scale {graph_scale})", res.teps, None, "TEPS"))
        comparisons.append(
            (f"levels checksum {label}", float(res.levels_checksum), None, "sum")
        )
        bench_rows.append(asdict(res))

    rendered = render_table(
        ["torus", "ranks", "scale", "levels", "reached", "TEPS", "t (ms)", "comm MB"],
        rows,
        title=(
            "TEPS vs nodes, flow mode, recovery enabled "
            f"(1 dead link, detoured) — parity probe: "
            f"lossless={'ok' if parity['lossless_ok'] else 'FAIL'}, "
            f"max completion dev {parity['completion_max_rel']:.2e} "
            f"(tol {PARITY_TIME_RTOL:.0e})"
        ),
    )
    return ExperimentResult(
        "scale",
        "TEPS-vs-nodes beyond the paper (batched flow mode)",
        rendered,
        comparisons,
        data={
            "scale_bench": {
                "rows": bench_rows,
                "parity": parity,
                "dead_links": [list(d) for d in DEAD_LINKS],
                "golden_dims": [list(d) for d in GOLDEN_DIMS],
            }
        },
    )
