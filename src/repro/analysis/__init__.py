"""Static analysis + runtime sanitizer for the DES reproduction.

The software analogue of the APEnet+ line's systematic hardware
verification (arXiv:1311.1741): determinism and causality are enforced by
machine-checkable tooling rather than review.

* :mod:`repro.analysis.rules` / :mod:`repro.analysis.linter` — AST lint
  rules DET001/UNIT001/SIM001, ``python -m repro.analysis lint src/``;
* :mod:`repro.analysis.sanitizer` — runtime causality/leak checking for
  ``Simulator(sanitize=True)`` / ``REPRO_SANITIZE=1``, whose verdict
  every experiment execution carries (:mod:`repro.bench.engine`).
"""

from .linter import lint_paths, lint_source
from .rules import RULES, Finding
from .sanitizer import (
    Sanitizer,
    SanitizerReport,
    Violation,
    collect_reports,
    reset_registry,
)

__all__ = [
    "Finding",
    "RULES",
    "lint_source",
    "lint_paths",
    "Sanitizer",
    "SanitizerReport",
    "Violation",
    "collect_reports",
    "reset_registry",
]
