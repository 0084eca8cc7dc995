"""Table IV & Fig 12 — distributed BFS strong scaling and time breakdown."""

from __future__ import annotations

from ...apps.bfs import BfsConfig, run_bfs
from ..harness import ExperimentResult, register
from ..tables import render_table

# Table IV: NP -> (APEnet TEPS, IB TEPS), |V| = 2^20.
PAPER_TABLE4 = {
    1: (6.7e7, 6.2e7),
    2: (9.8e7, 7.8e7),
    4: (1.3e8, 8.2e7),
    8: (1.7e8, 2.0e8),
}
# Fig 12 headline: at NP=4 "the communication time is 50% lower in the
# APEnet+ case" -> IB/APEnet comm-time ratio ~ 2.
PAPER_FIG12_COMM_RATIO = 2.0


def _scale(quick: bool) -> int:
    return 16 if quick else 20


@register("table4", "BFS TEPS strong scaling, APEnet vs InfiniBand", "Table IV")
def run_table4(quick: bool = True) -> ExperimentResult:
    """Traversed edges per second for both clusters.

    Quick mode runs scale 16; full mode runs the paper's |V|=2^20, scale
    20 (several minutes of wall time).
    """
    scale = _scale(quick)
    rows = []
    comparisons = []
    at_paper_scale = scale == 20
    for np_ in (1, 2, 4, 8):
        ape = run_bfs(BfsConfig(scale=scale, np_=np_, transport="apenet", validate=False))
        ib = run_bfs(BfsConfig(scale=scale, np_=np_, transport="ib", validate=False))
        p_ape, p_ib = PAPER_TABLE4[np_]
        rows.append(
            (np_, f"{ape.teps:.2e}", f"{p_ape:.1e}", f"{ib.teps:.2e}", f"{p_ib:.1e}")
        )
        if at_paper_scale:
            comparisons.append((f"APEnet TEPS NP={np_}", ape.teps, p_ape, "TEPS"))
            comparisons.append((f"IB TEPS NP={np_}", ib.teps, p_ib, "TEPS"))
        else:
            comparisons.append((f"APEnet TEPS NP={np_} (scale {scale})", ape.teps, None, "TEPS"))
            comparisons.append((f"IB TEPS NP={np_} (scale {scale})", ib.teps, None, "TEPS"))
    rendered = render_table(
        ["NP", "APEnet+ TEPS", "(paper)", "OMPI/IB TEPS", "(paper)"],
        rows,
        title=f"Table IV — BFS strong scaling, scale={scale} "
        f"({'paper parameters' if at_paper_scale else 'reduced graph; paper column is scale 20'})",
    )
    return ExperimentResult("table4", "BFS TEPS strong scaling", rendered, comparisons, rows)


@register("fig12", "BFS execution-time breakdown at NP=4", "Fig 12")
def run_fig12(quick: bool = True) -> ExperimentResult:
    """Compute/communication split on one of four tasks, both fabrics."""
    scale = _scale(quick)
    ape = run_bfs(BfsConfig(scale=scale, np_=4, transport="apenet", validate=False))
    ib = run_bfs(BfsConfig(scale=scale, np_=4, transport="ib", validate=False))
    task = 1  # "one out of four tasks"
    rows = []
    for label, res in (("APEnet+", ape), ("OMPI/IB", ib)):
        b = res.breakdown[task]
        rows.append(
            (label, round(b.t_compute_ns / 1e6, 2), round(b.t_comm_ns / 1e6, 2),
             f"{b.comm_fraction * 100:.0f}%")
        )
    ratio = ib.breakdown[task].t_comm_ns / ape.breakdown[task].t_comm_ns
    rendered = render_table(
        ["Fabric", "compute (ms)", "comm (ms)", "comm share"],
        rows,
        title=f"Fig 12 — BFS time breakdown, task {task} of 4 (scale {scale})\n"
        f"IB/APEnet comm-time ratio: {ratio:.2f} (paper: ~{PAPER_FIG12_COMM_RATIO})",
    )
    return ExperimentResult(
        "fig12", "BFS time breakdown", rendered,
        comparisons=[("IB/APEnet comm ratio", ratio, PAPER_FIG12_COMM_RATIO, "x")],
        data={"apenet": ape.breakdown, "ib": ib.breakdown},
    )
