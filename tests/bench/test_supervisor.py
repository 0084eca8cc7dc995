"""Tests for the worker-process supervisor (crash, hang, retry, budget, stop)."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.bench import harness
from repro.bench.engine import ExecutionEngine, deterministic_view
from repro.bench.supervisor import SupervisedResult, WorkerSupervisor, WorkSpec


def _register(exp_id, run):
    harness.register(exp_id, f"supervisor-test {exp_id}", "—")(run)


@pytest.fixture
def toy_experiment():
    exp_id = "_t_sup_toy"

    def run(quick):
        """Deterministic toy runner used by the supervisor tests."""
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="supervisor-test experiment",
            rendered="ok",
            comparisons=[("metric", 4.0, 4.0, "units")],
            data={"rows": [1, 2, 3]},
        )

    _register(exp_id, run)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


@pytest.fixture
def crash_once_experiment(tmp_path):
    """Crashes the worker with SIGKILL on the first run, succeeds after.

    The sentinel file lives on disk, so the *retried* worker (a fresh
    fork) sees that the first attempt already crashed and completes.
    """
    exp_id = "_t_sup_crash_once"
    sentinel = tmp_path / "crashed-once"

    def run(quick):
        """Chaos runner: SIGKILL itself once, then behave."""
        if not sentinel.exists():
            sentinel.write_text("boom")
            os.kill(os.getpid(), signal.SIGKILL)
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="crash-once experiment",
            rendered="survived",
            comparisons=[("metric", 7.0, 7.0, "units")],
            data={"attempted": True},
        )

    _register(exp_id, run)
    try:
        yield exp_id, sentinel
    finally:
        harness._REGISTRY.pop(exp_id, None)


def fast_supervisor(**kw):
    kw.setdefault("backoff_base_s", 0.01)
    kw.setdefault("kill_grace_s", 1.0)
    return WorkerSupervisor(**kw)


def test_clean_run_is_done_with_exit_zero(toy_experiment):
    res = fast_supervisor().run(WorkSpec(toy_experiment), deadline_s=30)
    assert res.ok and res.outcome == "done"
    assert res.attempts == 1 and res.retries == 0
    assert res.exitcodes == [0]
    assert res.payload["rendered"] == "ok"


def test_crash_is_retried_with_backoff_and_payload_is_bit_identical(
    crash_once_experiment,
):
    exp_id, sentinel = crash_once_experiment
    retries = []
    sup = fast_supervisor(on_retry=lambda: retries.append(1))
    res = sup.run(WorkSpec(exp_id), deadline_s=30)
    assert res.ok and res.attempts == 2 and res.retries == 1
    assert len(retries) == 1
    assert res.exitcodes[0] == -signal.SIGKILL and res.exitcodes[1] == 0
    # Determinism acceptance gate: the post-crash payload matches a clean
    # in-process run bit for bit (the sentinel now exists, so the runner
    # takes its healthy path here).
    clean = ExecutionEngine().execute(exp_id, quick=True)
    assert deterministic_view(res.payload) == deterministic_view(clean)


def test_always_crashing_worker_exhausts_bounded_budget(tmp_path):
    exp_id = "_t_sup_crash_always"

    def run(quick):
        """Chaos runner: always SIGKILL itself."""
        os.kill(os.getpid(), signal.SIGKILL)

    _register(exp_id, run)
    exits = []
    try:
        sup = fast_supervisor(retry_limit=1, on_worker_exit=exits.append)
        res = sup.run(WorkSpec(exp_id), deadline_s=30)
    finally:
        harness._REGISTRY.pop(exp_id, None)
    assert not res.ok and res.outcome == "worker-crash"
    assert res.attempts == 2  # 1 try + retry_limit retries, then terminal
    assert "retry budget" in res.detail
    assert exits == [-signal.SIGKILL, -signal.SIGKILL]
    assert res.payload is None


def test_hung_worker_is_killed_at_the_deadline():
    exp_id = "_t_sup_hang"

    def run(quick):
        """Chaos runner: never returns."""
        while True:
            time.sleep(3600)

    _register(exp_id, run)
    try:
        t0 = time.monotonic()
        res = fast_supervisor().run(WorkSpec(exp_id), deadline_s=0.3)
    finally:
        harness._REGISTRY.pop(exp_id, None)
    assert not res.ok and res.outcome == "timeout"
    assert "killed" in res.detail
    assert time.monotonic() - t0 < 10  # deadline + grace, not 3600s
    assert res.payload is None


def test_stop_ends_a_hung_run_without_a_retry(tmp_path):
    exp_id = "_t_sup_stop"
    started = tmp_path / "started"

    def run(quick):
        """Chaos runner: signal that the worker runs, then hang for a minute."""
        started.write_text("")
        time.sleep(60)

    _register(exp_id, run)
    exits = []
    results = []
    sup = fast_supervisor(on_worker_exit=exits.append)
    runner = threading.Thread(
        target=lambda: results.append(sup.run(WorkSpec(exp_id), deadline_s=30)),
        daemon=True,
    )
    try:
        runner.start()
        deadline = time.monotonic() + 30
        while not started.exists():
            assert time.monotonic() < deadline, "worker never started"
            time.sleep(0.01)
        t0 = time.monotonic()
        sup.stop()
        runner.join(timeout=30)
        stop_s = time.monotonic() - t0
    finally:
        harness._REGISTRY.pop(exp_id, None)
    assert not runner.is_alive()
    [res] = results
    assert res.outcome == "stopped" and not res.ok
    assert res.attempts == 1 and res.retries == 0
    assert stop_s < 5  # one poll interval plus the kill grace at most
    assert exits == [-signal.SIGTERM]  # reaped: killed, joined, exit recorded
    assert res.payload is None


def test_importing_repro_bench_loads_no_process_or_service_machinery():
    probe = (
        "import sys, repro.bench; "
        "print(sorted(m for m in ('repro.serve', 'asyncio', 'multiprocessing', "
        "'logging') if m in sys.modules))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_execution_error_is_terminal_never_retried():
    exp_id = "_t_sup_raise"

    def run(quick):
        """Always-failing runner: deterministic, so retry is pointless."""
        raise ValueError("deterministic failure")

    _register(exp_id, run)
    try:
        res = fast_supervisor(retry_limit=5).run(WorkSpec(exp_id), deadline_s=30)
    finally:
        harness._REGISTRY.pop(exp_id, None)
    assert res.outcome == "execution-error"
    assert res.attempts == 1 and res.retries == 0  # no retry for determinism
    assert res.detail == "ValueError"
    assert "deterministic failure" in res.payload["error"]


def test_deadline_must_be_positive_and_config_validated():
    with pytest.raises(ValueError):
        fast_supervisor().run(WorkSpec("fig3"), deadline_s=0)
    with pytest.raises(ValueError):
        WorkerSupervisor(retry_limit=-1)
    with pytest.raises(ValueError):
        WorkerSupervisor(backoff_factor=0.5)


def test_supervised_result_ok_property():
    assert SupervisedResult(outcome="done").ok
    assert not SupervisedResult(outcome="timeout").ok
