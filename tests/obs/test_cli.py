"""The trace CLIs: ``python -m repro.obs`` summary and diff, and the
trace export of ``python -m repro.bench --trace``."""

import json

import pytest

from repro.bench import harness
from repro.bench.__main__ import main as bench_main
from repro.obs import TraceSession, validate_chrome_trace, write_chrome_trace
from repro.obs.__main__ import main
from repro.sim import Simulator
from repro.units import ns


def _make_trace(path, label="e", dur=10.0):
    session = TraceSession(label=label)
    with session.activate():
        sim = Simulator()

        def proc():
            span = sim._obs.span("sim", "w")
            yield sim.timeout(ns(dur))
            span.end()

        sim.process(proc())
        sim.run()
    return write_chrome_trace(path, {label: session.payload()})


def test_summary_prints_table(tmp_path, capsys):
    path = _make_trace(tmp_path / "t.json")
    assert main(["summary", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Span latency by component" in out
    assert "note:" not in out  # valid trace -> no schema warning


def test_summary_warns_on_schema_problems(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"traceEvents": [{"ph": "Z", "pid": 1, "tid": 0, "name": "x"}]}))
    assert main(["summary", str(path)]) == 0
    assert "schema problem" in capsys.readouterr().out


def test_diff_labels_come_from_file_stems(tmp_path, capsys):
    a = _make_trace(tmp_path / "before.json", dur=10.0)
    b = _make_trace(tmp_path / "after.json", dur=20.0)
    assert main(["diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "Trace diff: before vs after" in out
    assert "+100.0%" in out


@pytest.fixture
def cli_experiment():
    exp_id = "_t_obs_cli"

    def runner(quick):
        """Toy experiment for the trace export tests."""
        sim = Simulator()

        def proc():
            span = sim._obs and sim._obs.span("sim", "tick")
            yield sim.timeout(ns(5.0))
            if span:
                span.end()

        sim.process(proc())
        sim.run()
        return harness.ExperimentResult(
            experiment_id=exp_id, title="cli", rendered="ok", comparisons=[]
        )

    harness.register(exp_id, "cli", "—")(runner)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


@pytest.fixture
def cli_failing_experiment():
    exp_id = "_t_obs_cli_boom"

    def runner(quick):
        """Always-failing toy experiment for the trace export tests."""
        raise RuntimeError("intentional")

    harness.register(exp_id, "cli-fail", "—")(runner)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


def test_bench_trace_writes_valid_trace(tmp_path, capsys, cli_experiment):
    out = tmp_path / "exported.json"
    assert bench_main([cli_experiment, "--trace", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) == []
    assert any(ev["ph"] == "X" for ev in doc["traceEvents"])
    assert f"wrote {out} (1 experiment(s)" in capsys.readouterr().err
    assert main(["summary", str(out)]) == 0


def test_bench_trace_failing_experiment_exits_nonzero(
    tmp_path, capsys, cli_failing_experiment
):
    out = tmp_path / "never.json"
    assert bench_main([cli_failing_experiment, "--trace", str(out)]) == 1
    assert f"# {cli_failing_experiment}: FAILED" in capsys.readouterr().out
