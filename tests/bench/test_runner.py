"""Tests for the parallel experiment runner and its on-disk result cache."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.bench import harness
from repro.bench.runner import (
    ResultCache,
    cache_key,
    run_experiments,
    write_json,
)


@pytest.fixture
def cheap_experiment():
    """Register a tiny deterministic experiment, unregister on teardown."""
    exp_id = "_t_runner_cheap"

    def runner(quick):
        """Deterministic toy runner used by the runner tests."""
        n = 3 if quick else 7
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="runner-test experiment",
            rendered=f"n={n}",
            comparisons=[("toy quantity", float(n), 3.0, "units")],
        )

    harness.register(exp_id, "runner-test experiment", "—")(runner)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


@pytest.fixture
def failing_experiment():
    exp_id = "_t_runner_boom"

    def runner(quick):
        """Always-failing toy runner used by the runner tests."""
        raise RuntimeError("intentional test failure")

    harness.register(exp_id, "runner-test failure", "—")(runner)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path, cheap_experiment):
    first = run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert first[0].status == "ok" and not first[0].cached

    second = run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert second[0].status == "cached" and second[0].cached
    assert second[0].comparisons == first[0].comparisons
    assert second[0].rendered == first[0].rendered


def test_use_cache_false_never_reads_or_writes(tmp_path, cheap_experiment):
    run_experiments([cheap_experiment], cache_dir=tmp_path, use_cache=False)
    assert list(tmp_path.iterdir()) == []
    again = run_experiments([cheap_experiment], cache_dir=tmp_path, use_cache=False)
    assert not again[0].cached


def test_corrupted_cache_file_is_a_miss_and_gets_repaired(tmp_path, cheap_experiment):
    run_experiments([cheap_experiment], cache_dir=tmp_path)
    key = cache_key(cheap_experiment, quick=True)
    path = ResultCache(tmp_path).path(key)
    assert path.exists()

    path.write_text("{not valid json ...")
    rerun = run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert rerun[0].status == "ok" and not rerun[0].cached  # miss -> re-executed

    # The re-execution repaired the entry: next run is a hit again.
    assert json.loads(path.read_text())["experiment_id"] == cheap_experiment
    third = run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert third[0].cached


def test_cache_payload_missing_keys_is_a_miss(tmp_path, cheap_experiment):
    key = cache_key(cheap_experiment, quick=True)
    cache = ResultCache(tmp_path)
    cache.put(key, {"experiment_id": cheap_experiment})  # valid JSON, truncated payload
    assert cache.get(key) is None
    records = run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert not records[0].cached


def test_truncated_cache_file_is_a_miss(tmp_path, cheap_experiment):
    """A torn write (e.g. power loss mid-flush) must read as a miss."""
    run_experiments([cheap_experiment], cache_dir=tmp_path)
    key = cache_key(cheap_experiment, quick=True)
    path = ResultCache(tmp_path).path(key)
    intact = path.read_text()
    path.write_text(intact[: len(intact) // 2])  # torn mid-document
    assert ResultCache(tmp_path).get(key) is None
    rerun = run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert rerun[0].status == "ok" and not rerun[0].cached


def test_empty_cache_file_is_a_miss_and_gets_overwritten(tmp_path, cheap_experiment):
    key = cache_key(cheap_experiment, quick=True)
    cache = ResultCache(tmp_path)
    cache.path(key).parent.mkdir(parents=True, exist_ok=True)
    cache.path(key).write_text("")  # zero-byte file (crash before any write)
    assert cache.get(key) is None
    run_experiments([cheap_experiment], cache_dir=tmp_path)
    assert json.loads(cache.path(key).read_text())["experiment_id"] == cheap_experiment


def test_cache_file_with_non_dict_json_is_a_miss(tmp_path, cheap_experiment):
    key = cache_key(cheap_experiment, quick=True)
    cache = ResultCache(tmp_path)
    cache.path(key).parent.mkdir(parents=True, exist_ok=True)
    for blob in ('["a", "list"]', '"just a string"', "42", "null"):
        cache.path(key).write_text(blob)
        assert cache.get(key) is None, blob


def test_cache_put_is_atomic_no_tmp_debris(tmp_path, cheap_experiment):
    """put() lands via tmp-file + os.replace: afterwards the directory
    holds only complete entries, never partially written temporaries."""
    key = cache_key(cheap_experiment, quick=True)
    cache = ResultCache(tmp_path)
    cache.put(key, {"experiment_id": cheap_experiment, "payload": "x" * 4096})
    names = [p.name for p in tmp_path.rglob("*") if p.is_file()]
    assert names == [cache.path(key).name]
    assert ".tmp" not in "".join(names)


def test_cache_put_never_stores_the_trace(tmp_path, cheap_experiment):
    key = cache_key(cheap_experiment, quick=True)
    payload = {
        "experiment_id": cheap_experiment,
        "title": "t",
        "rendered": "r",
        "comparisons": [],
        "wall_s": 0.0,
        "events": 0,
        "trace": {"events": [1, 2, 3]},
    }
    cache = ResultCache(tmp_path)
    cache.put(key, payload)
    assert "trace" not in cache.get(key)
    assert payload["trace"] == {"events": [1, 2, 3]}  # the caller's dict is intact


def test_cache_key_distinguishes_experiment_and_mode():
    keys = {
        cache_key("fig3", quick=True),
        cache_key("fig3", quick=False),
        cache_key("fig8", quick=True),
    }
    assert len(keys) == 3
    assert cache_key("fig3", quick=True) == cache_key("fig3", quick=True)


def _cache_key_of_copy(pkg_parent: Path) -> str:
    """``cache_key("fig8", True)`` computed by a fresh interpreter that
    imports the ``repro`` package found under *pkg_parent*."""
    env = dict(os.environ, PYTHONPATH=str(pkg_parent))
    out = subprocess.run(
        [sys.executable, "-c",
         "import repro.bench.runner as r; print(r.__file__); "
         "print(r.cache_key('fig8', True))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    module_file, key = out.stdout.split()
    assert Path(module_file).is_relative_to(pkg_parent)
    return key


def test_cache_key_changes_with_package_source(tmp_path):
    """A cached row computed by older code must not be served to newer
    code: one changed byte anywhere in the package changes the key, while
    an identical copy elsewhere on disk keeps it."""
    src = Path(repro.__file__).resolve().parent
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("a", "b", "c"):
        shutil.copytree(src, tmp_path / name / "repro", ignore=ignore)
    specs = tmp_path / "c" / "repro" / "gpu" / "specs.py"
    text = specs.read_bytes()
    assert b"Spec sheets" in text
    specs.write_bytes(text.replace(b"Spec sheets", b"Spec Sheets", 1))

    key_a = _cache_key_of_copy(tmp_path / "a")
    assert _cache_key_of_copy(tmp_path / "b") == key_a
    assert _cache_key_of_copy(tmp_path / "c") != key_a


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------


def test_jobs_1_and_jobs_4_identical_comparisons(tmp_path):
    ids = ["fig3", "fig8", "fig10"]
    serial = run_experiments(ids, jobs=1, use_cache=False)
    parallel = run_experiments(ids, jobs=4, use_cache=False)
    assert [r.experiment_id for r in serial] == ids
    assert [r.experiment_id for r in parallel] == ids
    for s, p in zip(serial, parallel):
        assert s.status == p.status == "ok"
        assert s.comparisons == p.comparisons  # bit-identical, not approximate
        assert s.rendered == p.rendered


def test_jobs_identical_with_fault_injection(tmp_path):
    """Fault-injected runs stay bit-identical across --jobs counts.

    Fault sampling uses per-site streams derived from (plan seed, site
    name), so worker forking and scheduling must not shift a single draw:
    the whole chaos sweep — goodput curves, retransmit counts, the
    escalated LinkFailure — is reproduced exactly in serial and parallel.
    """
    ids = ["faults", "fig3"]
    serial = run_experiments(ids, jobs=1, use_cache=False)
    parallel = run_experiments(ids, jobs=4, use_cache=False)
    for s, p in zip(serial, parallel):
        assert s.status == p.status == "ok"
        assert s.comparisons == p.comparisons  # bit-identical, not approximate
        assert s.rendered == p.rendered


def test_parallel_run_sees_runtime_registered_experiments(tmp_path, cheap_experiment):
    # Workers are forked, so they inherit experiments registered after import.
    records = run_experiments(
        [cheap_experiment, "fig3"], jobs=2, cache_dir=tmp_path
    )
    assert [r.status for r in records] == ["ok", "ok"]
    assert records[0].comparisons == [("toy quantity", 3.0, 3.0, "units")]


def test_unknown_id_fails_fast(tmp_path):
    with pytest.raises(KeyError, match="nonexistent"):
        run_experiments(["nonexistent"], cache_dir=tmp_path)


def test_jobs_must_be_positive(tmp_path, cheap_experiment):
    with pytest.raises(ValueError):
        run_experiments([cheap_experiment], jobs=0, cache_dir=tmp_path)


# ---------------------------------------------------------------------------
# Failures + artifact
# ---------------------------------------------------------------------------


def test_failed_experiment_recorded_but_not_cached(tmp_path, failing_experiment):
    records = run_experiments([failing_experiment], cache_dir=tmp_path)
    assert records[0].status == "error"
    assert "intentional test failure" in records[0].error
    assert list(tmp_path.iterdir()) == []  # errors never poison the cache


def test_write_json_artifact(tmp_path, cheap_experiment, failing_experiment):
    records = run_experiments(
        [cheap_experiment, failing_experiment], cache_dir=tmp_path
    )
    path = write_json(records, tmp_path / "run.json", quick=True, jobs=2, run_id="t")
    doc = json.loads(path.read_text())
    assert doc["run_id"] == "t"
    assert doc["mode"] == "quick" and doc["jobs"] == 2
    assert doc["n_errors"] == 1 and doc["n_cached"] == 0
    assert len(doc["records"]) == 2
    assert doc["records"][0]["comparisons"] == [["toy quantity", 3.0, 3.0, "units"]]


# ---------------------------------------------------------------------------
# Chaos: worker death and Ctrl-C in a --jobs sweep
# ---------------------------------------------------------------------------

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Shared head of every chaos child: *root* is the test's tmp_path.
_CHILD_HEAD = """
import json, os, signal, sys, time
from pathlib import Path
from repro.bench import harness
from repro.bench.runner import run_experiments

signal.signal(signal.SIGINT, signal.default_int_handler)
root = Path(sys.argv[1])
"""

#: A toy that SIGKILLs its own worker (as the OOM killer would), once
#: when CRASHES == "once" (a sentinel file remembers), else every time.
_CRASHING_TOY = """
@harness.register("_t_chaos_toy", "runner chaos toy", "-")
def toy(quick):
    \"\"\"Chaos runner: SIGKILL the worker, then (maybe) behave.\"\"\"
    sentinel = root / "crashed"
    if CRASHES == "always" or not sentinel.exists():
        sentinel.write_text("boom")
        os.kill(os.getpid(), signal.SIGKILL)
    return harness.ExperimentResult(
        experiment_id="_t_chaos_toy",
        title="chaos toy",
        rendered="survived",
        comparisons=[("metric", 7.0, 7.0, "units")],
    )

records = run_experiments(["_t_chaos_toy", "fig3"], jobs=2, cache_dir=root / "cache")
(root / "records.json").write_text(json.dumps([r.to_dict() for r in records]))
"""

#: Two toys that record their worker's pid and then sleep "forever".
_SLEEPING_TOYS = """
def sleeper(quick):
    \"\"\"Chaos runner: record the worker pid, then never return.\"\"\"
    (root / "pids" / str(os.getpid())).write_text("")
    time.sleep(3600)

(root / "pids").mkdir()
for exp_id in ("_t_chaos_sleep_a", "_t_chaos_sleep_b"):
    harness.register(exp_id, "runner chaos sleeper", "-")(sleeper)
run_experiments(["_t_chaos_sleep_a", "_t_chaos_sleep_b"], jobs=2, use_cache=False)
"""


def _spawn(script: str, tmp_path) -> subprocess.Popen:
    """Start *script* in a fresh interpreter that leads its own process
    group, so a test can signal or kill the sweep and its workers at once."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD_HEAD + script, str(tmp_path)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def _crash_sweep(tmp_path, crashes: str, timeout_s: float = 60.0) -> list[dict]:
    """Run the crashing-toy sweep; fail (instead of hanging) past *timeout_s*."""
    proc = _spawn(f"CRASHES = {crashes!r}\n" + _CRASHING_TOY, tmp_path)
    try:
        _out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"sweep with a killed worker still running after {timeout_s:g}s")
    assert proc.returncode == 0, err
    return json.loads((tmp_path / "records.json").read_text())


def test_killed_worker_is_retried_and_the_sweep_completes(tmp_path):
    toy, fig3 = _crash_sweep(tmp_path, "once")
    assert toy["status"] == "ok", toy["error"]
    assert toy["rendered"] == "survived"
    assert toy["comparisons"] == [["metric", 7.0, 7.0, "units"]]
    assert fig3["status"] == "ok"


def test_worker_that_keeps_dying_is_a_worker_crash_record(tmp_path):
    toy, fig3 = _crash_sweep(tmp_path, "always")
    assert toy["status"] == "error"
    assert toy["error_class"] == "worker-crash"
    assert "retry budget" in toy["error"]
    assert fig3["status"] == "ok"
    cached = [json.loads(p.read_text()) for p in (tmp_path / "cache").iterdir()]
    assert [c["experiment_id"] for c in cached] == ["fig3"]  # crashes never cached


def test_ctrl_c_kills_the_workers_and_retries_none(tmp_path):
    proc = _spawn(_SLEEPING_TOYS, tmp_path)
    pids_dir = tmp_path / "pids"
    try:
        deadline = time.monotonic() + 60
        while not (pids_dir.is_dir() and len(list(pids_dir.iterdir())) == 2):
            assert proc.poll() is None, proc.communicate()[1]
            assert time.monotonic() < deadline, "workers never started"
            time.sleep(0.05)
        t0 = time.monotonic()
        os.killpg(proc.pid, signal.SIGINT)  # what Ctrl-C in a terminal does
        proc.communicate(timeout=30)
        exit_s = time.monotonic() - t0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode != 0
    assert exit_s < 5.0
    pids = [int(p.name) for p in pids_dir.iterdir()]
    assert len(pids) == 2  # no worker was re-forked as a crash retry
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
