"""Shape checks of the quick-mode `scale` experiment and its parity gate.

``benchmarks/baselines/sweep.json`` pins every row, the rendered table
and the raw rows in ``data["scale_bench"]`` exactly, and
``tests/bench/test_check_bench.py`` gates one run against it.  These
tests read the same run and state what it must show: a tight parity
probe and the whole quick ladder with recovery enabled.  A parity probe
outside its contract stops the experiment before the BFS ladder runs.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import scale
from repro.bench.harness import ExperimentError


@pytest.fixture(scope="module")
def result(quick_record):
    return quick_record("scale")


def test_parity_probe_reports_lossless_and_tight(result):
    parity = result.data["scale_bench"]["parity"]
    assert parity["lossless_ok"] is True
    assert parity["within_tolerance"] is True
    assert 0.0 <= parity["completion_max_rel"] <= parity["time_rtol"]
    assert abs(parity["makespan_rel"]) <= parity["time_rtol"]
    assert parity["busy_max_rel"] <= 1e-6


def test_rows_cover_the_quick_ladder_with_recovery_enabled(result):
    rows = result.data["scale_bench"]["rows"]
    assert [tuple(r["dims"]) for r in rows] == [
        (4, 4, 4), (6, 6, 6), (8, 8, 8), (12, 12, 12)
    ]
    for row in rows:
        assert row["dead_links"] == 1  # recovery-enabled: detoured fault
        assert row["shards"] == 4
        assert row["teps"] > 0 and row["total_time_ns"] > 0
        assert row["reached"] > 0 and row["comm_bytes"] > 0
    # The acceptance config: 12^3 = 1728 ranks actually swept.
    assert rows[-1]["n_ranks"] == 1728


@pytest.mark.parametrize(
    "broken, quantity",
    [("lossless_ok", "lossless aggregates"), ("within_tolerance", "completion max rel")],
    ids=["lossless_ok", "within_tolerance"],
)
def test_a_failing_parity_probe_stops_the_run(monkeypatch, broken, quantity):
    report = {
        "lossless_ok": True,
        "within_tolerance": True,
        "completion_max_rel": 0.5,
        "busy_max_rel": 0.0,
        "makespan_rel": 0.0,
        broken: False,
    }

    def no_ladder(*args, **kwargs):
        raise AssertionError("the BFS ladder ran after a failing parity probe")

    monkeypatch.setattr(scale, "parity_probe", lambda: report)
    monkeypatch.setattr(scale, "run_scale_bfs", no_ladder)
    with pytest.raises(ExperimentError, match=quantity):
        scale.run_scale(quick=True)
