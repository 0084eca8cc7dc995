"""Benchmark harness: experiments reproducing every table and figure."""

from .figures import Series, ascii_plot, render_series_table
from .harness import Experiment, ExperimentResult, all_ids, get, register, run
from .runner import ResultCache, RunRecord, cache_key, run_experiments, write_json
from .tables import fmt_ratio, render_table

__all__ = [
    "Experiment",
    "ExperimentResult",
    "register",
    "get",
    "run",
    "all_ids",
    "RunRecord",
    "ResultCache",
    "cache_key",
    "run_experiments",
    "write_json",
    "render_table",
    "fmt_ratio",
    "Series",
    "render_series_table",
    "ascii_plot",
]
