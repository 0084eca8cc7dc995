"""Tests for the runtime DES sanitizer (repro.analysis.sanitizer)."""

import json
import os

import pytest

from repro.analysis import collect_reports, reset_registry
from repro.analysis.sanitizer import _REGISTRY
from repro.bench import harness
from repro.bench.__main__ import main as bench_main
from repro.bench.engine import ExecutionEngine
from repro.bench.runner import run_experiments
from repro.bench.supervisor import WorkerSupervisor, WorkSpec
from repro.sim import SimulationError, Simulator
from repro.sim.channel import Channel
from repro.sim.resources import ByteFifo, Resource, Store
from repro.units import GBps, ns
from tests.bench.test_check_bench import check_bench


@pytest.fixture(autouse=True)
def clean_registry():
    """Isolate the module-level sanitizer registry per test."""
    reset_registry()
    yield
    reset_registry()


def kinds(report):
    return [v.kind for v in report.violations]


# ---------------------------------------------------------------------------
# Enablement
# ---------------------------------------------------------------------------


def test_disabled_by_default():
    sim = Simulator()
    assert sim.sanitizer is None
    assert sim.sanitizer_report() is None


def test_env_var_enables(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator().sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Simulator().sanitizer is None
    # Explicit argument beats the environment.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator(sanitize=False).sanitizer is None


def test_registry_collects_every_sanitized_sim():
    Simulator(sanitize=True)
    Simulator(sanitize=True)
    Simulator()  # unsanitized: not registered
    reports = collect_reports()
    assert len(reports) == 2
    assert collect_reports() == []  # collection drains the registry


# ---------------------------------------------------------------------------
# Violation detection
# ---------------------------------------------------------------------------


def test_causality_violation_recorded():
    sim = Simulator(sanitize=True)
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)
    report = sim.sanitizer_report()
    assert kinds(report) == ["causality"]
    v = report.violations[0]
    assert v.details["scheduled_t"] == -1.0
    assert "behind clock" in v.message


def test_event_leak_detected():
    sim = Simulator(sanitize=True)
    sim.timeout(ns(10))  # scheduled, never drained
    report = sim.sanitizer_report()
    assert kinds(report) == ["event-leak"]
    assert report.pending_heap_events == 1


def test_clean_drained_run_is_ok():
    sim = Simulator(sanitize=True)

    def proc():
        yield sim.timeout(ns(10))

    sim.process(proc())
    sim.run()
    report = sim.sanitizer_report()
    assert report.ok
    assert report.events_processed == sim.events_processed
    assert report.pending_processes == 0


def test_resource_leak_detected():
    sim = Simulator(sanitize=True)
    res = Resource(sim, capacity=1, name="dma-engine")

    def leaker():
        yield res.acquire()
        yield sim.timeout(ns(5))
        # acquire never released

    sim.process(leaker())
    sim.run()
    report = sim.sanitizer_report()
    assert "resource-leak" in kinds(report)
    assert any(v.details.get("resource") == "dma-engine" for v in report.violations)


def test_blocked_putter_detected():
    sim = Simulator(sanitize=True)
    fifo = ByteFifo(sim, capacity=64, name="tx-fifo")

    def producer():
        yield fifo.put(64)
        yield fifo.put(1)  # FIFO full, nobody drains it

    sim.process(producer())
    sim.run()
    report = sim.sanitizer_report()
    assert "blocked-putter" in kinds(report)
    assert any(v.details.get("container") == "tx-fifo" for v in report.violations)
    assert "process-leak" in kinds(report)  # the stuck producer itself


def test_idle_consumer_daemon_not_flagged():
    """The card's service loops rest on ``.get()`` of an empty queue —
    the normal end state, never a leak."""
    sim = Simulator(sanitize=True)
    store = Store(sim, name="service-queue")

    def daemon():
        while True:
            yield store.get()

    def producer():
        store.put("pkt")
        yield sim.timeout(ns(1))

    sim.process(daemon())
    sim.process(producer())
    sim.run()
    report = sim.sanitizer_report()
    assert report.ok
    assert report.pending_processes == 1
    assert report.idle_consumers == 1


def test_channel_backlog_detected():
    sim = Simulator(sanitize=True)
    ch = Channel(sim, bandwidth=GBps(1.0), latency=ns(100.0), name="torus-x")
    ch.transfer(4096)  # serializer time reserved, never drained
    report = sim.sanitizer_report()
    assert "channel-backlog" in kinds(report)
    assert "event-leak" in kinds(report)


def test_abort_skips_end_state_checks():
    sim = Simulator(sanitize=True)

    def crasher():
        sim.timeout(ns(1000))  # stray event that would read as a leak
        yield sim.timeout(ns(1))
        raise RuntimeError("deliberate model failure")

    with pytest.raises(RuntimeError, match="deliberate"):
        sim.run_process(crasher())
    report = sim.sanitizer_report()
    assert report.aborted
    assert report.ok  # no leak noise from a crashed run


def test_finalize_is_idempotent():
    sim = Simulator(sanitize=True)
    sim.timeout(ns(10))
    first = sim.sanitizer_report()
    assert sim.sanitizer_report() is first
    assert len(first.violations) == 1


def test_report_render_mentions_counts():
    sim = Simulator(sanitize=True)
    sim.timeout(ns(10))
    text = sim.sanitizer_report().render()
    assert "1 violation(s)" in text
    assert "[event-leak]" in text


# ---------------------------------------------------------------------------
# Bit-identity: sanitized == unsanitized
# ---------------------------------------------------------------------------


def kernel_workload(sim: Simulator, n_procs: int, n_steps: int) -> None:
    """A representative mix of timeouts, event waits, and channel traffic.

    Deterministic: delays derive only from loop indices.  Mostly Timeouts
    (firmware costs, link serialization) with a sprinkling of triggered
    Events (completion notifications) and Channel transfers.
    """
    ch = Channel(sim, bandwidth=GBps(4.0), latency=ns(120.0), name="selftest-link")
    rendezvous = [sim.event() for _ in range(n_procs // 4 or 1)]

    def worker(i):
        for k in range(n_steps):
            yield sim.timeout((i % 13) + 0.5 * (k % 7))
            # Fire-and-forget notification nobody joins on (posted-write
            # completions, flushed packets): pure kernel dispatch.
            sim.timeout(0.25 * (k % 5))
            if k % 16 == 0:
                yield ch.transfer(512 + 64 * (i % 8))
        ev = rendezvous[i % len(rendezvous)]
        if not ev.triggered:
            ev.succeed(i)

    def waiter(j):
        yield rendezvous[j]

    for j in range(len(rendezvous)):
        sim.process(waiter(j))
    for i in range(n_procs):
        sim.process(worker(i))


def test_sanitized_run_is_bit_identical():
    """Observation-only: same clock, same event count, with or without."""

    def run(sanitize):
        sim = Simulator(sanitize=sanitize)
        kernel_workload(sim, n_procs=16, n_steps=20)
        sim.run()
        return sim.now, sim.events_processed

    assert run(False) == run(True)
    reset_registry()


# ---------------------------------------------------------------------------
# The verdict: every execution carries it, every front end reports it
# ---------------------------------------------------------------------------


@pytest.fixture
def leaky_experiment(monkeypatch):
    """A registered toy that leaks a Resource slot, run with REPRO_SANITIZE=1."""
    exp_id = "_t_sanitize_leak"

    def run(quick):
        """Toy runner that acquires a slot and never releases it."""
        sim = Simulator()
        res = Resource(sim, capacity=1, name="leaky-slot")

        def holder():
            yield res.acquire()

        sim.run_process(holder())
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="sanitizer leak",
            rendered="",
            comparisons=[("metric", 1.0, 1.0, "units")],
        )

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    harness.register(exp_id, "sanitizer leak", "—")(run)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


def test_engine_turns_a_violation_into_an_error_payload(leaky_experiment):
    payload = ExecutionEngine().execute(leaky_experiment, quick=True)
    assert payload["error_class"] == "SanitizerViolation"
    assert payload["error"].startswith("[resource-leak]")
    assert "'leaky-slot'" in payload["error"]
    assert "comparisons" not in payload
    assert _REGISTRY == []


def test_runner_and_cli_report_a_violation(leaky_experiment, capsys):
    [record] = run_experiments([leaky_experiment], use_cache=False)
    assert record.status == "error"
    assert record.error_class == "SanitizerViolation"
    assert bench_main([leaky_experiment, "--no-cache"]) == 1
    assert f"# {leaky_experiment}: FAILED" in capsys.readouterr().out


def test_supervisor_reports_a_violation_as_an_execution_error(leaky_experiment):
    """The service's outcome: terminal at once, since a rerun reproduces it."""
    res = WorkerSupervisor().run(WorkSpec(leaky_experiment), deadline_s=60)
    assert res.outcome == "execution-error"
    assert res.attempts == 1
    assert res.detail == "SanitizerViolation"


def test_sanitized_sweep_leaves_the_registry_empty(leaky_experiment):
    """Each execution drains the registry, leaky or clean."""
    held = []
    records = run_experiments(
        [leaky_experiment, "fig3"],
        use_cache=False,
        progress=lambda record: held.append(len(_REGISTRY)),
    )
    assert [r.status for r in records] == ["error", "ok"]
    assert held == [0, 0]


# ---------------------------------------------------------------------------
# `REPRO_SANITIZE=1 python -m repro.bench`, gated by scripts/check_bench.py
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("exp_id", ["ablation_scaleout", "fig3", "ext_get"])
def test_sanitize_cli_passes_a_clean_experiment(exp_id, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert bench_main([exp_id, "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert f"# {exp_id}: " in out
    assert "FAILED" not in out
    assert _REGISTRY == []


def test_sanitized_cli_run_never_takes_an_unsanitized_cached_result(tmp_path, monkeypatch):
    """The result cache keys the sanitizer mode: after an unsanitized run
    warms the cache, a sanitized run executes (and gets its verdict), and
    only a repeat sanitized run is a hit."""
    cache = str(tmp_path / "cache")

    def run(tag):
        artifact = tmp_path / f"{tag}.json"
        assert bench_main(["fig3", "--cache-dir", cache, "--json", str(artifact)]) == 0
        (record,) = json.loads(artifact.read_text())["records"]
        return record["status"]

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert run("plain") == "ok"
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert run("sanitized") == "ok"
    assert run("sanitized-again") == "cached"
    monkeypatch.delenv("REPRO_SANITIZE")
    assert run("plain-again") == "cached"


@pytest.mark.parametrize(
    "field, report",
    [
        ("rendered", "drift: rendered differs from the baseline"),
        ("data", "drift: data differs from the baseline"),
        ("comparisons", "drift: row 'metric' = 1.0 != baseline 0.0"),
    ],
)
def test_sanitize_cli_fails_on_any_drift_in_the_view(field, report, tmp_path, monkeypatch, capsys):
    """One part of the deterministic view reads the sanitizer switch: the
    rendered output, the data block or a row.  The sanitized artifact is
    gated against the unsanitized one, and each part is compared."""
    exp_id = "_t_sanitize_drift"

    def run(quick):
        """Toy runner whose *field* depends on REPRO_SANITIZE."""
        flag = os.environ.get("REPRO_SANITIZE", "0")
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="sanitize drift",
            rendered=flag if field == "rendered" else "same",
            comparisons=[("metric", float(flag) if field == "comparisons" else 1.0, 1.0, "units")],
            data=flag if field == "data" else None,
        )

    baseline, artifact = tmp_path / "plain.json", tmp_path / "sanitized.json"
    harness.register(exp_id, "sanitize drift", "—")(run)
    try:
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert bench_main([exp_id, "--no-cache", "--json", str(baseline)]) == 0
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert bench_main([exp_id, "--no-cache", "--json", str(artifact)]) == 0
    finally:
        harness._REGISTRY.pop(exp_id, None)
    capsys.readouterr()
    assert check_bench.main([str(artifact), "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert f"FAIL: _t_sanitize_{report}" in out
    assert out.count("FAIL: ") == 1
