"""The sweep gate: ``scripts/check_bench.py`` and ``benchmarks/baselines/sweep.json``.

The gate's comparison is unit-tested on synthesized artifacts.  The
committed baseline is the one copy of every experiment's result: it is
checked for shape, and 13 of its experiments are re-run in-process,
sanitized, and compared with it through the gate itself (events, rows,
rendered output and data), so a model change, a sanitizer violation or
a stale baseline fails here before it fails the CI sweep.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import harness
from repro.bench.runner import calibration_hash, write_json

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: Quick experiments re-run here against their committed records: the
#: paper's headline table1, fig3, fig4, table2 and table4, the recovery
#: and scale extensions, and the cheap rest.
PINNED_IDS = (
    "table1",
    "fig3",
    "fig4",
    "table2",
    "table4",
    "recovery",
    "scale",
    "fig8",
    "fig10",
    "ablation_memcpy",
    "ablation_scaleout",
    "ext_get",
    "selftest",
)


def _load_check_bench():
    """Import scripts/check_bench.py (scripts/ is not a package)."""
    path = REPO_ROOT / "scripts" / "check_bench.py"
    spec = importlib.util.spec_from_file_location("check_bench", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


check_bench = _load_check_bench()


def _record(exp_id, events, comparisons, rendered):
    return {
        "experiment_id": exp_id,
        "title": f"{exp_id} title",
        "status": "ok",
        "wall_s": 0.25,
        "events": events,
        "cached": False,
        "comparisons": comparisons,
        "rendered": rendered,
        "error": None,
        "error_class": None,
        "data": {"points": [1, 2]},
    }


def _sweep(**overrides):
    """A two-experiment quick-sweep artifact: one with rows, one without."""
    doc = {
        "run_id": "a",
        "repro_version": "0",
        "calibration_hash": calibration_hash(),
        "mode": "quick",
        "jobs": 2,
        "total_wall_s": 0.5,
        "n_cached": 0,
        "n_errors": 0,
        "records": [
            _record(
                "fig8",
                100,
                [["latency 32B", 4.5, 5.0, "us"], ["latency 4KB", 7.25, 8.0, "us"]],
                "Fig 8 table",
            ),
            _record("ext_get", 40, [], "GET vs PUT table"),
        ],
    }
    doc.update(overrides)
    return doc


def _failures(artifact):
    return check_bench.check_sweep(artifact, _sweep())


# ---------------------------------------------------------------------------
# Gate logic
# ---------------------------------------------------------------------------


def test_artifact_equal_to_baseline_passes():
    assert _failures(_sweep()) == []


def test_wall_time_run_id_and_jobs_are_not_compared():
    art = _sweep(run_id="b", jobs=1)
    for record in art["records"]:
        record["wall_s"] = 9.0
    assert _failures(art) == []


def test_changed_row_names_experiment_row_and_both_values():
    art = _sweep()
    art["records"][0]["comparisons"][1][1] = 7.5
    assert _failures(art) == ["fig8: row 'latency 4KB' = 7.5 != baseline 7.25"]


def test_changed_event_count_fails():
    art = _sweep()
    art["records"][0]["events"] = 101
    assert _failures(art) == ["fig8: events 101 != baseline 100"]


def test_changed_rendered_in_rowless_experiment_fails():
    art = _sweep()
    art["records"][1]["rendered"] = "GET vs PUT table (retitled)"
    assert _failures(art) == ["ext_get: rendered differs from the baseline"]


def test_changed_data_block_fails():
    art = _sweep()
    art["records"][1]["data"] = {"points": [1, 3]}
    assert _failures(art) == ["ext_get: data differs from the baseline"]


def test_dropped_row_reports_the_row_count():
    art = _sweep()
    del art["records"][0]["comparisons"][1]
    assert _failures(art) == ["fig8: 1 comparison rows != baseline 2"]


def test_missing_id_fails():
    art = _sweep()
    del art["records"][1]
    assert _failures(art) == ["ext_get: missing from the artifact"]


def test_extra_id_fails():
    art = _sweep()
    art["records"].append(_record("fig3", 7, [["delay", 1.0, None, "us"]], "Fig 3"))
    assert _failures(art) == ["fig3: not in the baseline"]


def test_error_record_fails():
    art = _sweep()
    art["records"][0].update(
        status="error", error="Traceback ...", error_class="ExperimentError"
    )
    assert _failures(art) == ["fig8: error record (ExperimentError)"]


def test_full_mode_artifact_fails():
    """A full run against the committed quick baseline is a mode mismatch."""
    failures = _failures(_sweep(mode="full"))
    assert len(failures) == 1
    assert "'full'-mode" in failures[0]
    assert "baseline a 'quick'-mode run" in failures[0]


def test_two_full_mode_artifacts_are_gated_like_quick_ones():
    baseline = _sweep(mode="full")
    assert check_bench.check_sweep(_sweep(mode="full"), baseline) == []
    art = _sweep(mode="full")
    art["records"][0]["comparisons"][0][1] = 4.75
    assert check_bench.check_sweep(art, baseline) == [
        "fig8: row 'latency 32B' = 4.75 != baseline 4.5"
    ]


def test_calibration_mismatch_asks_for_a_refresh():
    failures = _failures(_sweep(calibration_hash="deadbeef0000"))
    assert len(failures) == 1
    assert "refresh benchmarks/baselines/sweep.json" in failures[0]


def test_calibration_hash_is_stable_and_short():
    h = calibration_hash()
    assert h == calibration_hash()
    assert len(h) == 12
    int(h, 16)  # hex string


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_check_bench_cli_roundtrip(tmp_path, capsys):
    art_path = tmp_path / "run.json"
    base_path = tmp_path / "baseline.json"
    art_path.write_text(json.dumps(_sweep()))
    base_path.write_text(json.dumps(_sweep()))
    rc = check_bench.main([str(art_path), "--baseline", str(base_path)])
    assert rc == 0
    assert "-> ok" in capsys.readouterr().out

    art = _sweep()
    art["records"][0]["wall_s"] = 0.5
    art_path.write_text(json.dumps(art))
    rc = check_bench.main([str(art_path), "--baseline", str(base_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "-> ok" in out
    table = out.splitlines()[-5:]
    assert table == [
        "| experiment | baseline events | events | baseline wall_s | wall_s | ratio |",
        "|---|---:|---:|---:|---:|---:|",
        "| fig8 | 100 | 100 | 0.250 | 0.500 | 2.00 |",
        "| ext_get | 40 | 40 | 0.250 | 0.250 | 1.00 |",
        "| total | 140 | 140 | 0.500 | 0.750 | 1.50 |",
    ]

    art = _sweep()
    art["records"][0]["events"] = 101
    art["records"][1]["events"] = None
    art_path.write_text(json.dumps(art))
    rc = check_bench.main([str(art_path), "--baseline", str(base_path)])
    assert rc == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL: fig8: events 101 != baseline 100" in out
    assert out[-3:] == [
        "| fig8 | 100 | 101 | 0.250 | 0.250 | 1.00 |",
        "| ext_get | 40 | ? | 0.250 | 0.250 | 1.00 |",
        "| total | 140 | ? | 0.500 | 0.500 | 1.00 |",
    ]


def test_check_bench_cli_unreadable_artifact(tmp_path, capsys):
    with pytest.raises(SystemExit):
        check_bench.main([str(tmp_path / "missing.json")])
    assert "cannot read" in capsys.readouterr().err


def test_check_bench_cli_rejects_non_object_json(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        check_bench.main([str(path)])
    assert exc.value.code == 1
    assert "not a JSON object" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The committed baseline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def committed_baseline():
    return check_bench.load(check_bench.DEFAULT_BASELINE)


def test_committed_baseline_is_a_clean_quick_sweep(committed_baseline):
    assert committed_baseline["mode"] == "quick"
    assert committed_baseline["calibration_hash"] == calibration_hash()
    records = committed_baseline["records"]
    assert [r["experiment_id"] for r in records] == harness.all_ids()
    assert [r for r in records if r["status"] == "error"] == []


@pytest.mark.parametrize("exp_id", PINNED_IDS)
def test_committed_baseline_is_current(exp_id, quick_record, committed_baseline, tmp_path):
    """One in-process run of *exp_id* equals its committed record exactly.

    ``sweep.json`` is written by ``--jobs 2`` workers, so this also shows
    that a worker and an in-process run give the same result.
    """
    artifact = json.loads(write_json([quick_record(exp_id)], tmp_path / "run.json").read_text())
    baseline = dict(
        committed_baseline,
        records=[r for r in committed_baseline["records"] if r["experiment_id"] == exp_id],
    )
    assert check_bench.check_sweep(artifact, baseline) == []
