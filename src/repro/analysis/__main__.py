"""CLI for the static checks of the DES tooling.

The runtime sanitizer has no subcommand: every experiment execution
carries its verdict (:meth:`repro.bench.engine.ExecutionEngine.execute`),
so ``REPRO_SANITIZE=1 python -m repro.bench ...`` is the sanitized run
(the result cache keys sanitized results apart from unsanitized ones).

``python -m repro.analysis lint PATH...``
    Run the DET/UNIT/SIM lint rules; print ``path:line:col`` diagnostics;
    exit 1 when findings remain (the CI ``analysis`` job gates on this).

``python -m repro.analysis docstrings PATH...``
    Documentation contract: every module must open with a one-paragraph
    docstring (no stubs, no missing docstrings).  Exit 1 on findings.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .linter import lint_paths
from .rules import RULES


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
        description="DES lint rules and module-docstring check",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lint = sub.add_parser("lint", help="run the DET/UNIT/SIM AST rules")
    p_lint.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    p_lint.add_argument(
        "--explain", action="store_true", help="print the rule catalogue and exit"
    )
    p_lint.set_defaults(func=_cmd_lint)

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
