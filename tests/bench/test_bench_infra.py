"""Unit tests for the benchmark infrastructure: tables, figures, registry."""

import pytest

from repro.bench import (
    ExperimentResult,
    Series,
    all_ids,
    ascii_plot,
    fmt_ratio,
    get,
    render_series_table,
    render_table,
)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def test_render_table_alignment():
    out = render_table(["a", "long-header"], [[1, 2.5], ["xy", None]])
    lines = out.splitlines()
    assert len({len(line) for line in lines}) <= 2  # header/sep/rows align
    assert "n.a." in out
    assert "2.50" in out


def test_render_table_with_title():
    out = render_table(["x"], [[1]], title="My Table")
    assert out.splitlines()[0] == "My Table"


def test_fmt_values():
    out = render_table(["v"], [[1234567.0], [0.0001], [0.0]])
    assert "1.23e+06" in out
    assert "1.00e-04" in out


def test_fmt_ratio():
    assert fmt_ratio(110, 100) == "+10.0%"
    assert fmt_ratio(90, 100) == "-10.0%"
    assert fmt_ratio(90, None) == ""
    assert fmt_ratio(90, 0) == ""


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def make_series():
    a = Series("alpha")
    b = Series("beta")
    for i, x in enumerate([1024, 2048, 4096]):
        a.add(x, 100.0 * (i + 1))
        b.add(x, 50.0 * (i + 1))
    return [a, b]


def test_series_table_includes_all_points():
    out = render_series_table(make_series())
    assert "alpha" in out and "beta" in out
    assert "1KiB" in out and "4KiB" in out
    assert "300" in out and "150" in out


def test_series_table_handles_missing_points():
    a, b = make_series()
    b.x.pop()
    b.y.pop()
    out = render_series_table([a, b])
    assert "n.a." in out


def test_ascii_plot_renders():
    out = ascii_plot(make_series(), width=40, height=8, title="T")
    assert out.startswith("T")
    assert "o = alpha" in out and "x = beta" in out
    body = "\n".join(out.splitlines()[2:-3])
    assert "o" in body and "x" in body  # markers placed somewhere


def test_ascii_plot_empty():
    assert ascii_plot([Series("none")]) == "(empty plot)"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_all_paper_artifacts_registered():
    ids = all_ids()
    for required in (
        "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "table2", "table3", "fig11", "table4", "fig12",
    ):
        assert required in ids, f"{required} missing from the registry"


def test_registry_order_is_paper_order():
    ids = all_ids()
    assert ids.index("table1") < ids.index("fig4") < ids.index("table2")


def test_get_unknown_raises():
    with pytest.raises(KeyError, match="unknown experiment"):
        get("fig99")


def test_experiment_metadata():
    exp = get("table1")
    assert exp.paper_ref == "Table I"
    assert callable(exp.runner)


def test_experiment_result_deviation_math():
    r = ExperimentResult("x", "t", "out", comparisons=[("q", 110.0, 100.0, "u")])
    assert r.deviations() == {"q": pytest.approx(0.1)}


def test_quick_experiment_runs_end_to_end():
    exp = get("fig8")
    result = exp.runner(True)
    assert result.rendered
    assert result.comparisons
    # H-H latency within the calibration envelope.
    hh = dict((n, m) for n, m, p, u in result.comparisons)["H-H @32B"]
    assert 5.0 < hh < 8.5
