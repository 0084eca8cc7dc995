"""Experiment registry: one entry per table/figure of the paper.

Each experiment module registers a runner returning an
:class:`ExperimentResult`; ``python -m repro.bench <id>`` (see
``__main__.py``) and the service (:mod:`repro.serve`) execute them
through :class:`~repro.bench.engine.ExecutionEngine`.  ``quick=True``
trims sweep points and problem sizes so the full set finishes in
minutes; ``quick=False`` runs the paper's exact parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = [
    "ExperimentError",
    "ExperimentResult",
    "Experiment",
    "register",
    "get",
    "all_ids",
    "run",
]


class ExperimentError(RuntimeError):
    """An experiment's internal invariant failed (explicit, -O-proof
    replacement for the load-bearing asserts the SIM001 lint rule bans)."""


@dataclass
class ExperimentResult:
    """Everything an experiment produced."""

    experiment_id: str
    title: str
    rendered: str  # human-readable output (tables / plots)
    # (quantity, measured, paper, unit) comparison rows for EXPERIMENTS.md.
    comparisons: list[tuple[str, float, Optional[float], str]] = field(
        default_factory=list
    )
    data: Any = None  # raw series/rows for programmatic use


@dataclass
class Experiment:
    """Registry entry."""

    id: str
    title: str
    paper_ref: str  # "Table I", "Fig 4", ...
    runner: Callable[[bool], ExperimentResult]  # runner(quick)


_REGISTRY: dict[str, Experiment] = {}


def register(id: str, title: str, paper_ref: str):
    """Decorator: register ``runner(quick: bool) -> ExperimentResult``."""

    def wrap(fn):
        if id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {id!r}")
        _REGISTRY[id] = Experiment(id, title, paper_ref, fn)
        return fn

    return wrap


def _ensure_loaded() -> None:
    from . import experiments  # noqa: F401 - side-effect registration


def get(id: str) -> Experiment:
    """Look up one experiment."""
    _ensure_loaded()
    try:
        return _REGISTRY[id]
    except KeyError:
        raise KeyError(f"unknown experiment {id!r}; known: {sorted(_REGISTRY)}") from None


def all_ids() -> list[str]:
    """Every registered experiment id, in paper order."""
    _ensure_loaded()
    order = [
        "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "table2", "table3", "fig11", "table4", "fig12",
    ]
    known = [i for i in order if i in _REGISTRY]
    extra = sorted(set(_REGISTRY) - set(known))
    return known + extra


def run(id: str, quick: bool = True) -> ExperimentResult:
    """Execute one experiment."""
    return get(id).runner(quick)
