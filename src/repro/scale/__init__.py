"""Large-torus scaling layer: batched flows, exact parity, large-torus BFS.

The paper's clusters stop at 12 nodes; ROADMAP item 1 asks for 8^3 ->
16^3 tori inside CI time.  Per-packet Python events are the wall, so
this package adds a **flow/packet duality** (DESIGN.md §12):

* :mod:`repro.scale.flow` — bulk PUTs as NumPy/analytic flow records;
  byte/packet/route aggregates are lossless (bit-identical to the
  per-packet stack), completion times come from a probe-calibrated
  piecewise-affine model with documented tolerance.
* :mod:`repro.scale.exact` — the per-packet golden reference driver the
  parity harness (``tests/scale/``) diffs flow mode against.
* :mod:`repro.scale.bfs` — a large-torus distributed BFS whose
  communication rides the flow model; expansion is one vectorised
  in-process call per level.
"""

from .flow import (
    BulkTransfer,
    FlowCalibration,
    FlowNetwork,
    ParityReport,
    TransferAggregates,
    calibrate,
    compare_aggregates,
    fragment_count,
    last_fragment_bytes,
    wire_bytes,
)
from .exact import run_exact
from .bfs import ScaleBfsResult, run_scale_bfs

__all__ = [
    "BulkTransfer",
    "FlowCalibration",
    "FlowNetwork",
    "ParityReport",
    "ScaleBfsResult",
    "TransferAggregates",
    "calibrate",
    "compare_aggregates",
    "fragment_count",
    "last_fragment_bytes",
    "run_exact",
    "run_scale_bfs",
    "wire_bytes",
]
