#!/usr/bin/env python
"""Gate a quick-sweep run artifact against its committed baseline.

``benchmarks/baselines/sweep.json`` is the one committed copy of every
experiment's result.  The simulation is seedless, so the whole sweep is
exact.  The gate fails unless both files are quick mode with the same
calibration hash, the artifact holds exactly the baseline's experiment
ids and no error record, and every experiment's ``events`` and
:func:`repro.bench.engine.deterministic_view` (title, rendered output,
comparison rows, data) equal the baseline's.  ``wall_s``, ``run_id``
and ``jobs`` are recorded but not compared.

Exit code 0 when every check passes, 1 otherwise.  Run from the
repository root:

    PYTHONPATH=src python -m repro.bench --all --quick --no-cache --jobs 2 --json results/ci.json
    python scripts/check_bench.py results/ci.json

The baseline is an ordinary run artifact, so ``check_bench.py b.json
--baseline a.json`` checks that two sweeps (say ``--jobs 1`` and
``--jobs 2``) agree.  Tier-1 runs 13 of the experiments in-process and
gates each against its own record here
(``tests/bench/test_check_bench.py``).

Refreshing the baseline after a deliberate model change, in the same
commit as the change:

    PYTHONPATH=src python -m repro.bench --all --quick --no-cache --jobs 2 --json benchmarks/baselines/sweep.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "sweep.json"


def load(path: Path) -> dict:
    """Parse *path* as a JSON object, exiting with a readable error on failure."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"check_bench: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)
    if not isinstance(doc, dict):
        print(
            f"check_bench: {path}: top level is a {type(doc).__name__}, "
            "not a JSON object",
            file=sys.stderr,
        )
        raise SystemExit(1)
    return doc


def _records(doc: dict, name: str, failures: list[str]) -> dict[str, dict]:
    """*doc*'s records by experiment id; malformed records become failures."""
    by_id: dict[str, dict] = {}
    records = doc.get("records")
    if not isinstance(records, list):
        failures.append(f"{name} has no records list: keys={sorted(doc)}")
        return by_id
    for record in records:
        if not isinstance(record, dict) or "experiment_id" not in record:
            failures.append(f"{name} holds a record with no experiment_id")
        else:
            by_id[record["experiment_id"]] = record
    return by_id


def _row_failure(exp_id: str, row: list, ref: list) -> str:
    if row[:1] == ref[:1] and row[2:] == ref[2:]:
        return f"{exp_id}: row {ref[0]!r} = {row[1]!r} != baseline {ref[1]!r}"
    return f"{exp_id}: row {row!r} != baseline {ref!r}"


def check_sweep(artifact: dict, baseline: dict) -> list[str]:
    """Gate failures for a quick-sweep run artifact (empty = pass)."""
    from repro.bench.engine import deterministic_view

    failures: list[str] = []
    for name, doc in (("artifact", artifact), ("baseline", baseline)):
        if doc.get("mode") != "quick":
            failures.append(
                f"{name} is a {doc.get('mode')!r}-mode run: the sweep gate "
                "compares quick sweeps only"
            )
    cal, base_cal = artifact.get("calibration_hash"), baseline.get("calibration_hash")
    if cal != base_cal:
        failures.append(
            f"calibration hash {cal!r} != baseline {base_cal!r}: the cost "
            "model changed — refresh benchmarks/baselines/sweep.json in the "
            "same commit (command in scripts/check_bench.py)"
        )
    if failures:
        # Records from another mode or calibration are not comparable.
        return failures

    got = _records(artifact, "artifact", failures)
    want = _records(baseline, "baseline", failures)
    for exp_id in want:
        if exp_id not in got:
            failures.append(f"{exp_id}: missing from the artifact")
    for exp_id, record in got.items():
        ref = want.get(exp_id)
        if ref is None:
            failures.append(f"{exp_id}: not in the baseline")
            continue
        if record.get("status") == "error":
            failures.append(f"{exp_id}: error record ({record.get('error_class')})")
            continue
        if record.get("events") != ref.get("events"):
            failures.append(
                f"{exp_id}: events {record.get('events')!r} != baseline "
                f"{ref.get('events')!r}"
            )
        view, ref_view = deterministic_view(record), deterministic_view(ref)
        for key in sorted(view.keys() | ref_view.keys()):
            value, ref_value = view.get(key), ref_view.get(key)
            if value == ref_value:
                continue
            if key == "comparisons" and isinstance(value, list) and isinstance(ref_value, list):
                if len(value) != len(ref_value):
                    failures.append(
                        f"{exp_id}: {len(value)} comparison rows != baseline "
                        f"{len(ref_value)}"
                    )
                failures.extend(
                    _row_failure(exp_id, row, ref_row)
                    for row, ref_row in zip(value, ref_value)
                    if row != ref_row
                )
            else:
                failures.append(f"{exp_id}: {key} differs from the baseline")
    return failures


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="scripts/check_bench.py",
        description="gate a quick-sweep run artifact against its committed baseline",
    )
    parser.add_argument("artifact", help="path to a quick-sweep --json artifact")
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help=f"committed baseline (default: {DEFAULT_BASELINE})",
    )
    args = parser.parse_args(argv)

    artifact = load(Path(args.artifact))
    baseline = load(Path(args.baseline))
    sys.path.insert(0, str(SRC))  # check_sweep imports repro.bench.engine
    failures = check_sweep(artifact, baseline)
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
