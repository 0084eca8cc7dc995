"""Shared fixtures for the bench tests: one sanitized quick run per pinned experiment."""

import os
from unittest import mock

import pytest

from repro.bench.runner import run_experiments
from repro.scale import flow


@pytest.fixture(scope="session")
def quick_record():
    """``quick_record(exp_id)``: the experiment's quick-mode run record.

    Each experiment executes at most once per session, in-process through
    the runner's :class:`~repro.bench.engine.ExecutionEngine`, uncached and
    sanitized (``REPRO_SANITIZE=1``), and every test that asks for it reads
    the same record.  A sanitizer violation makes it an error record, so
    the tests that compare it with ``sweep.json`` also prove each run
    clean and its events and view equal to the unsanitized record.  It
    runs against an empty flow-model calibration memo, as in a fresh
    ``--jobs N`` worker, whatever ran earlier in the session: a filled memo
    skips the calibration probes and their kernel events.  The memo and
    the environment are restored afterwards.
    """
    memo = {}

    def get(exp_id):
        if exp_id not in memo:
            with mock.patch.dict(flow._CAL_CACHE, clear=True), mock.patch.dict(
                os.environ, {"REPRO_SANITIZE": "1"}
            ):
                (memo[exp_id],) = run_experiments([exp_id], quick=True, use_cache=False)
        return memo[exp_id]

    return get
