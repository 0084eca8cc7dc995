"""Shared fixtures for the bench tests: one quick run per pinned experiment."""

import pytest

from repro.bench.runner import run_experiments


@pytest.fixture(scope="session")
def quick_record():
    """``quick_record(exp_id)``: the experiment's quick-mode run record.

    Each experiment executes at most once per session, in-process through
    the runner's :class:`~repro.bench.engine.ExecutionEngine`, uncached,
    and every test that asks for it reads the same record.
    """
    memo = {}

    def get(exp_id):
        if exp_id not in memo:
            (memo[exp_id],) = run_experiments([exp_id], quick=True, use_cache=False)
        return memo[exp_id]

    return get
