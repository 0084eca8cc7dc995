"""CLI for the DES sanitizer tooling.

``python -m repro.analysis lint PATH...``
    Run the DET/UNIT/SIM lint rules; print ``path:line:col`` diagnostics;
    exit 1 when findings remain (the CI ``analysis`` job gates on this).

``python -m repro.analysis sanitize [EXPERIMENT...]``
    Run each experiment (default: every registered one) twice through the
    execution engine — a normal baseline and a run with
    ``REPRO_SANITIZE=1`` — then verify (a) both runs succeeded, (b) every
    simulator finished with zero sanitizer violations and (c) the
    sanitized run's deterministic view (rows, rendered output and data) is
    **bit-identical** to the baseline's, extending the golden-number
    identity proof to sanitized mode.  Event counts are not compared: an
    in-process rerun can skip memoised work.  Exit 1 on any error,
    violation or drift.

``python -m repro.analysis docstrings PATH...``
    Documentation contract: every module must open with a one-paragraph
    docstring (no stubs, no missing docstrings).  Exit 1 on findings.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .linter import lint_paths
from .rules import RULES
from .sanitizer import collect_reports, reset_registry


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.explain:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}: {desc}")
        return 0
    findings = lint_paths(args.paths)
    for f in findings:
        print(f.render())
    n = len(findings)
    print(f"repro.analysis lint: {n} finding(s) in {len(args.paths)} path(s)")
    return 1 if n else 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    # Deferred: the engine pulls in the whole model.
    from ..bench.engine import ENGINE, deterministic_view, view_differences
    from ..bench.harness import all_ids

    quick = not args.full
    failed = False
    for exp_id in args.experiments or all_ids():
        baseline = ENGINE.execute(exp_id, quick)
        reset_registry()
        os.environ["REPRO_SANITIZE"] = "1"
        try:
            sanitized = ENGINE.execute(exp_id, quick)
        finally:
            os.environ.pop("REPRO_SANITIZE", None)
        reports = collect_reports()
        violations = [v for r in reports for v in r.violations]
        errors = [p["error"] for p in (baseline, sanitized) if "error" in p]
        drift = view_differences(deterministic_view(sanitized), deterministic_view(baseline))
        identical = not drift
        events = sum(r.events_processed for r in reports)
        ok = identical and not violations and not errors
        print(
            f"[{'OK' if ok else 'FAIL'}] {exp_id}: {len(reports)} simulator(s), "
            f"{events} events, {len(violations)} violation(s), deterministic view "
            f"{'identical' if identical else 'DRIFTED'}"
        )
        for err in errors:
            print("  error: " + err.rstrip().replace("\n", "\n  "))
        for v in violations:
            print("  " + v.render())
        for line in drift:
            print(f"  drift: {line}")
        failed = failed or not ok
    return 1 if failed else 0


def _cmd_docstrings(args: argparse.Namespace) -> int:
    from .docstrings import check_paths

    findings = check_paths(args.paths)
    for f in findings:
        print(f.render())
    n = len(findings)
    print(f"repro.analysis docstrings: {n} finding(s) in {len(args.paths)} path(s)")
    return 1 if n else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="DES lint rules and runtime sanitizer gate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lint = sub.add_parser("lint", help="run the DET/UNIT/SIM AST rules")
    p_lint.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    p_lint.add_argument(
        "--explain", action="store_true", help="print the rule catalogue and exit"
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_san = sub.add_parser(
        "sanitize", help="sanitized golden-identity run of experiments"
    )
    p_san.add_argument("experiments", nargs="*", help="experiment ids (default: all)")
    p_san.add_argument(
        "--full", action="store_true", help="full (paper-parameter) mode instead of quick"
    )
    p_san.set_defaults(func=_cmd_sanitize)

    p_doc = sub.add_parser(
        "docstrings", help="module-docstring completeness check"
    )
    p_doc.add_argument(
        "paths", nargs="*", default=["src/repro"], help="files or directories"
    )
    p_doc.set_defaults(func=_cmd_docstrings)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
