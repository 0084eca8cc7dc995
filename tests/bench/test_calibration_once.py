"""Regression: the calibration dict/hash are computed once per process.

Before the hoist, ``cache_key`` and ``calibration_hash`` each re-walked
``asdict(DEFAULT_CONFIG)`` on every call — once per cached-experiment
lookup and once per artifact stamp.  The memo in
:mod:`repro.bench.runner` pins both: after the first computation no call
path may walk the config dataclass again, and the memoised values must
be byte-identical to the direct computation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import repro.bench.runner as runner
from repro.apenet.config import DEFAULT_CONFIG
from repro.bench.runner import RunRecord


def _counting_asdict(counter):
    real = asdict

    def wrapper(obj, *args, **kwargs):
        if obj is DEFAULT_CONFIG:
            counter["n"] += 1
        return real(obj, *args, **kwargs)

    return wrapper


def _reset_memos(monkeypatch, counter):
    monkeypatch.setattr(runner, "_calibration_dict_memo", None)
    monkeypatch.setattr(runner, "_calibration_hash_memo", None)
    monkeypatch.setattr(runner, "asdict", _counting_asdict(counter))


def test_calibration_walked_once_across_hash_and_cache_keys(monkeypatch):
    counter = {"n": 0}
    _reset_memos(monkeypatch, counter)
    hashes = {runner.calibration_hash() for _ in range(5)}
    keys = {runner.cache_key(exp, quick) for exp in ("selftest", "scale")
            for quick in (True, False) for _ in range(3)}
    assert counter["n"] == 1, (
        f"asdict(DEFAULT_CONFIG) walked {counter['n']} times — the memo "
        "in repro.bench.runner regressed"
    )
    assert len(hashes) == 1
    assert len(keys) == 4  # (experiment, quick) combinations stay distinct


def test_artifact_writers_do_not_rewalk_the_config(monkeypatch, tmp_path):
    """Writing the run artifact stamps the hash from the memo."""
    counter = {"n": 0}
    _reset_memos(monkeypatch, counter)

    runner.write_json([RunRecord(experiment_id="scale")], tmp_path / "run.json", run_id="t")
    for _ in range(3):
        runner.calibration_hash()
    assert counter["n"] == 1

    run = json.loads((tmp_path / "run.json").read_text())
    assert run["calibration_hash"] == runner.calibration_hash()


def test_memoised_hash_equals_direct_computation(monkeypatch):
    counter = {"n": 0}
    _reset_memos(monkeypatch, counter)
    blob = json.dumps(
        asdict(DEFAULT_CONFIG), sort_keys=True, separators=(",", ":")
    )
    expected = hashlib.sha256(blob.encode()).hexdigest()[:12]
    assert runner.calibration_hash() == expected
