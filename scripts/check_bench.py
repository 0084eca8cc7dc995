#!/usr/bin/env python
"""Gate a benchmark artifact against its committed baseline.

Two modes:

* default — gate ``BENCH_kernel.json`` (from ``python -m repro.bench
  selftest --bench-json ...``) against
  ``benchmarks/baselines/kernel.json``;
* ``--scale`` — gate ``BENCH_scale.json`` (from ``python -m repro.bench
  scale --scale-json ...``) against ``benchmarks/baselines/scale.json``:
  the exact-vs-flow parity probe must report bit-exact lossless
  aggregates and completion deviations inside the documented tolerance,
  every golden row (small tori) must match the committed numbers
  *exactly* (the flow model is deterministic model time, not wall
  time), all required torus sizes must be present, and the calibration
  hash must match.

Kernel-mode contract:

Consumes the ``BENCH_kernel.json`` produced by ``python -m repro.bench
selftest --bench-json ...`` and the committed reference numbers in
``benchmarks/baselines/kernel.json``, then enforces the perf-history
contract:

1. the kernel's aggregate events/sec does not regress more than
   ``max_regression_pct`` below the committed reference throughput;
2. the artifact's calibration hash matches the baseline's: perf numbers
   measured under a different cost-model calibration are not comparable,
   so a calibration change must ship a refreshed baseline in the same
   commit.

Exit code 0 when every check passes, 1 otherwise (the CI
``bench-history`` job gates on this).  Run from the repository root:

    PYTHONPATH=src python -m repro.bench selftest --bench-json BENCH_kernel.json
    python scripts/check_bench.py BENCH_kernel.json

Refreshing the baseline after an intentional change: copy the relevant
numbers (rounded *down* generously — the committed floor must hold on
the slowest CI runner, not your workstation) into
``benchmarks/baselines/kernel.json`` and commit both files together.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "kernel.json"
DEFAULT_SCALE_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "scale.json"

#: Golden-row fields that must match the committed baseline exactly.
SCALE_GOLDEN_FIELDS = (
    "n_ranks",
    "n_vertices",
    "n_edges",
    "root",
    "n_levels",
    "reached",
    "traversed",
    "levels_checksum",
    "total_time_ns",
    "teps",
    "comm_bytes",
    "max_link_load",
)


def load(path: Path) -> dict:
    """Parse *path* as JSON, exiting with a readable error on failure."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"check_bench: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def check(artifact: dict, baseline: dict) -> list[str]:
    """Return the list of gate failures (empty when the artifact passes)."""
    failures: list[str] = []
    kernel = artifact.get("kernel")
    if not isinstance(kernel, dict) or "events_per_s" not in kernel:
        return [f"artifact has no kernel events_per_s block: keys={sorted(artifact)}"]

    max_reg = float(baseline.get("max_regression_pct", 20.0))
    ref_eps = float(baseline["kernel"]["events_per_s"])
    floor = ref_eps * (1.0 - max_reg / 100.0)
    eps = float(kernel["events_per_s"])
    if eps < floor:
        failures.append(
            f"kernel: {eps:,.0f} events/s regresses >{max_reg:.0f}% below "
            f"the committed reference {ref_eps:,.0f} (floor {floor:,.0f})"
        )

    base_cal = baseline.get("calibration_hash")
    cal = artifact.get("calibration_hash")
    if base_cal and cal != base_cal:
        failures.append(
            f"calibration hash {cal!r} != baseline {base_cal!r}: the cost "
            "model changed — refresh benchmarks/baselines/kernel.json in "
            "the same commit"
        )
    return failures


def check_scale(artifact: dict, baseline: dict) -> list[str]:
    """Gate failures for a ``BENCH_scale.json`` artifact (empty = pass)."""
    failures: list[str] = []

    parity = artifact.get("parity")
    if not isinstance(parity, dict):
        return [f"artifact has no parity report: keys={sorted(artifact)}"]
    if not parity.get("lossless_ok"):
        failures.append(
            "parity: lossless aggregates (bytes/link bytes/packet counts/"
            "routes) are NOT bit-exact against the per-packet reference"
        )
    if not parity.get("within_tolerance"):
        failures.append(
            f"parity: completion times deviate beyond the documented "
            f"tolerance (max rel {parity.get('completion_max_rel')!r}, "
            f"tol {parity.get('time_rtol')!r})"
        )
    max_dev = float(baseline.get("max_parity_completion_rel", 2e-3))
    dev = float(parity.get("completion_max_rel", float("inf")))
    if dev > max_dev:
        failures.append(
            f"parity: completion max rel dev {dev:.3e} exceeds the "
            f"committed ceiling {max_dev:.3e}"
        )

    rows = {
        (tuple(r.get("dims", ())), r.get("scale")): r
        for r in artifact.get("rows", [])
    }
    for ref in baseline.get("golden_rows", []):
        key = (tuple(ref["dims"]), ref["scale"])
        row = rows.get(key)
        if row is None:
            failures.append(f"golden row {key} missing from the artifact")
            continue
        for fld in SCALE_GOLDEN_FIELDS:
            if fld not in ref:
                continue
            if row.get(fld) != ref[fld]:
                failures.append(
                    f"golden row {key}: {fld} = {row.get(fld)!r} != "
                    f"committed {ref[fld]!r} (flow-mode rows are "
                    "deterministic — an intentional model change must "
                    "refresh benchmarks/baselines/scale.json)"
                )
    present_dims = {tuple(r.get("dims", ())) for r in artifact.get("rows", [])}
    for dims in baseline.get("require_dims", []):
        if tuple(dims) not in present_dims:
            failures.append(f"required torus {tuple(dims)} missing from the sweep")

    base_cal = baseline.get("calibration_hash")
    cal = artifact.get("calibration_hash")
    if base_cal and cal != base_cal:
        failures.append(
            f"calibration hash {cal!r} != baseline {base_cal!r}: the cost "
            "model changed — refresh benchmarks/baselines/scale.json in "
            "the same commit"
        )
    return failures


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="scripts/check_bench.py",
        description="gate a benchmark artifact against its committed baseline",
    )
    parser.add_argument("artifact", help="path to BENCH_kernel.json / BENCH_scale.json")
    parser.add_argument(
        "--scale", action="store_true",
        help="gate a BENCH_scale.json scaling artifact instead of the "
        "kernel benchmark",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"committed baseline (default: {DEFAULT_BASELINE} or, with "
        f"--scale, {DEFAULT_SCALE_BASELINE})",
    )
    args = parser.parse_args(argv)

    baseline_path = args.baseline or (
        DEFAULT_SCALE_BASELINE if args.scale else DEFAULT_BASELINE
    )
    artifact = load(Path(args.artifact))
    baseline = load(Path(baseline_path))

    if args.scale:
        failures = check_scale(artifact, baseline)
        parity = artifact.get("parity", {})
        for row in artifact.get("rows", []):
            dims = row.get("dims", [])
            print(
                f"  {'x'.join(str(d) for d in dims):8s} scale {row.get('scale', '?'):>2} "
                f" TEPS {float(row.get('teps', 0.0)):.4e}  "
                f"levels {row.get('n_levels', '?')}  reached {row.get('reached', '?')}"
            )
        if isinstance(parity, dict):
            print(
                f"  parity: lossless={parity.get('lossless_ok')} "
                f"completion dev {parity.get('completion_max_rel')}"
            )
    else:
        failures = check(artifact, baseline)
        kernel = artifact.get("kernel", {})
        print(
            f"  kernel {float(kernel.get('events_per_s', 0.0)):>12,.0f} events/s  "
            f"({kernel.get('events', '?')} events)"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    verdict = "FAILED" if failures else "ok"
    print(
        f"check_bench: {len(failures)} failure(s) "
        f"[{artifact.get('run_id', '?')}, calibration "
        f"{artifact.get('calibration_hash', '?')}] -> {verdict}"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
