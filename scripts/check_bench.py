#!/usr/bin/env python
"""Gate a run artifact against a baseline of the same mode.

``benchmarks/baselines/sweep.json``, the default baseline, is the one
committed copy of every experiment's quick-mode result.  The simulation
is seedless, so every run is exact.  The gate fails unless both files
are of one mode (quick or full) with the same calibration hash, the
artifact holds exactly the baseline's experiment ids and no error
record, and every experiment's ``events`` and
:func:`repro.bench.engine.deterministic_view` (title, rendered output,
comparison rows, data) equal the baseline's.  ``wall_s``, ``run_id``
and ``jobs`` are recorded but not compared.  After the verdict comes a
Markdown table, ready to paste into a change description, with one row
per experiment found in both files: its event count in the baseline and
in the artifact, its ``wall_s`` in both, and their ratio.  A closing
``total`` row sums each column over those experiments, so a baseline
refresh shows every old and new count beside the sums.  The table is
informational; it does not change the verdict or the exit code.

Exit code 0 when every check passes, 1 otherwise.  Run from the
repository root:

    REPRO_SANITIZE=1 PYTHONPATH=src python -m repro.bench --all --quick --no-cache --jobs 2 --json results/ci.json
    python scripts/check_bench.py results/ci.json

That is CI's ``bench`` job.  A sanitizer violation makes an error
record, so the gate also proves that the sanitized sweep is clean and
equal to the unsanitized baseline, event counts included.  The baseline
is an ordinary run artifact, so ``check_bench.py b.json --baseline
a.json`` checks that two runs agree: say ``--jobs 1`` and ``--jobs 2``,
or a sanitized and an unsanitized full ``faults`` run (the nightly
job).  Tier-1 runs 13 of the experiments in-process, sanitized, and
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


def check_sweep(artifact: dict, baseline: dict) -> list[str]:
    """Gate failures for a run artifact against a baseline of its mode (empty = pass)."""
    from repro.bench.engine import deterministic_view, view_differences

    failures: list[str] = []
    mode, base_mode = artifact.get("mode"), baseline.get("mode")
    if mode != base_mode or mode not in ("quick", "full"):
        failures.append(
            f"artifact is a {mode!r}-mode run, baseline a {base_mode!r}-mode "
            "run: the gate compares two quick or two full runs"
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
        failures.extend(
            f"{exp_id}: {line}"
            for line in view_differences(deterministic_view(record), deterministic_view(ref))
        )
    return failures


def _is_number(value) -> bool:
    return isinstance(value, (int, float))


def _seconds(value) -> str:
    return f"{value:.3f}" if _is_number(value) else "?"


def _table_row(name: str, ref_events, events, ref_wall, wall) -> str:
    try:
        ratio = f"{wall / ref_wall:.2f}"
    except (TypeError, ZeroDivisionError):
        ratio = "?"
    return (
        f"| {name} | {ref_events if _is_number(ref_events) else '?'} "
        f"| {events if _is_number(events) else '?'} | {_seconds(ref_wall)} "
        f"| {_seconds(wall)} | {ratio} |"
    )


def wall_time_table(artifact: dict, baseline: dict) -> list[str]:
    """Markdown table of event counts and wall time, baseline and
    artifact, per experiment found in both files.

    Each row gives the ratio artifact / baseline of wall time, and a
    closing ``total`` row sums every column (``?`` where a value is
    missing).  Informational: wall time is never gated.
    """
    malformed: list[str] = []  # already reported by check_sweep
    want = _records(baseline, "baseline", malformed)
    lines = [
        "| experiment | baseline events | events | baseline wall_s | wall_s | ratio |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    rows = []
    for exp_id, record in _records(artifact, "artifact", malformed).items():
        if exp_id not in want:
            continue
        ref = want[exp_id]
        row = (
            ref.get("events"),
            record.get("events"),
            ref.get("wall_s"),
            record.get("wall_s"),
        )
        rows.append(row)
        lines.append(_table_row(exp_id, *row))
    columns = list(zip(*rows)) or [()] * 4
    totals = [sum(col) if all(map(_is_number, col)) else None for col in columns]
    lines.append(_table_row("total", *totals))
    return lines


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="scripts/check_bench.py",
        description="gate a run artifact against a baseline of the same mode",
    )
    parser.add_argument("artifact", help="path to a --json run artifact")
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
    print()
    for line in wall_time_table(artifact, baseline):
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
