"""CLI for the DES sanitizer tooling.

``python -m repro.analysis lint PATH...``
    Run the DET/UNIT/SIM lint rules; print ``path:line:col`` diagnostics;
    exit 1 when findings remain (the CI ``analysis`` job gates on this).

``python -m repro.analysis sanitize EXPERIMENT...``
    Run each experiment twice — a normal baseline and a run with
    ``REPRO_SANITIZE=1`` — then verify (a) every simulator finished with
    zero sanitizer violations and (b) the sanitized comparison rows are
    **bit-identical** to the baseline, extending the golden-number
    identity proof to sanitized mode.  Exit 1 on any violation or drift.

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
    from ..bench import harness  # deferred: pulls in the whole model

    quick = not args.full
    failed = False
    for exp_id in args.experiments:
        baseline = harness.run(exp_id, quick=quick)
        reset_registry()
        os.environ["REPRO_SANITIZE"] = "1"
        try:
            sanitized = harness.run(exp_id, quick=quick)
        finally:
            os.environ.pop("REPRO_SANITIZE", None)
        reports = collect_reports()
        violations = [v for r in reports for v in r.violations]
        identical = baseline.comparisons == sanitized.comparisons
        events = sum(r.events_processed for r in reports)
        status = "OK" if (identical and not violations) else "FAIL"
        print(
            f"[{status}] {exp_id}: {len(reports)} simulator(s), {events} events, "
            f"{len(violations)} violation(s), golden rows "
            f"{'identical' if identical else 'DRIFTED'}"
        )
        for v in violations:
            print("  " + v.render())
        if not identical:
            for base_row, san_row in zip(baseline.comparisons, sanitized.comparisons):
                if base_row != san_row:
                    print(f"  drift: {base_row} -> {san_row}")
        failed = failed or bool(violations) or not identical
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
    p_san.add_argument("experiments", nargs="+", help="experiment ids (e.g. selftest faults)")
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
    if not getattr(args, "experiments", True):
        parser.error("sanitize needs at least one experiment id")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
