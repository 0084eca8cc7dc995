"""Tests for the shared execution core (repro.bench.engine).

The engine is the single place that turns (experiment, quick, trace) into
a payload; the CLI runner and the service must both be thin shells over
it, and its deterministic view is the bit-identity surface the service's
crash-retry guarantee is stated against.
"""

import pytest

from repro.bench import harness, runner
from repro.bench.engine import (
    DETERMINISTIC_KEYS,
    ENGINE,
    ExecutionEngine,
    deterministic_view,
)


@pytest.fixture
def toy_experiment():
    exp_id = "_t_engine_toy"

    def run(quick):
        """Deterministic toy runner used by the engine tests."""
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="engine-test experiment",
            rendered=f"quick={quick}",
            comparisons=[("metric", 1.0 if quick else 2.0, 1.0, "units")],
            data={"mode": "quick" if quick else "full"},
        )

    harness.register(exp_id, "engine-test experiment", "—")(run)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


def test_runner_entry_points_are_the_engine(monkeypatch, toy_experiment):
    # The refactor contract: CLI and service share ONE execution core, so
    # the serial runner path must execute through ENGINE.execute.
    calls = []
    real = ENGINE.execute

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ENGINE, "execute", spy)
    [record] = runner.run_experiments([toy_experiment], jobs=1, use_cache=False)
    assert calls == [(toy_experiment, True, False)]
    assert record.status == "ok" and record.rendered == "quick=True"


def test_success_payload_contract(toy_experiment):
    payload = ExecutionEngine().execute(toy_experiment, quick=True)
    assert payload["experiment_id"] == toy_experiment
    assert payload["rendered"] == "quick=True"
    assert payload["comparisons"] == [["metric", 1.0, 1.0, "units"]]
    assert payload["data"] == {"mode": "quick"}
    assert "error" not in payload
    assert payload["wall_s"] >= 0 and payload["events"] >= 0


def test_error_payload_contract():
    exp_id = "_t_engine_boom"

    def run(quick):
        """Always-failing toy runner used by the engine tests."""
        raise RuntimeError("intentional engine failure")

    harness.register(exp_id, "engine-test failure", "—")(run)
    try:
        payload = ExecutionEngine().execute(exp_id, quick=True)
    finally:
        harness._REGISTRY.pop(exp_id, None)
    assert payload["error_class"] == "RuntimeError"
    assert "intentional engine failure" in payload["error"]
    assert payload["args"] == {"experiment_id": exp_id, "quick": True}


def test_deterministic_view_strips_telemetry(toy_experiment):
    payload = ExecutionEngine().execute(toy_experiment, quick=True)
    view = deterministic_view(payload)
    assert set(view) <= set(DETERMINISTIC_KEYS)
    assert "wall_s" not in view and "events" not in view
    # Two independent executions agree bit for bit on the view.
    again = deterministic_view(ExecutionEngine().execute(toy_experiment, quick=True))
    assert view == again


def test_trace_payload_attached_only_when_requested():
    traced = ExecutionEngine().execute("fig3", quick=True, trace=True)
    plain = ExecutionEngine().execute("fig3", quick=True)
    assert "trace" in traced and traced["trace"]["events"]
    assert "trace" not in plain
    assert deterministic_view(traced) == deterministic_view(plain)


def test_selftest_payload_is_exact_run_to_run():
    # A cached or crash-retried selftest must equal a fresh run, so its
    # rendered table and data may carry no wall-clock timings.
    first = ExecutionEngine().execute("selftest", quick=True)
    second = ExecutionEngine().execute("selftest", quick=True)
    assert deterministic_view(first) == deterministic_view(second)
    assert first["events"] == second["events"] == 1238
