"""Shape checks of the quick-mode `recovery` experiment.

``benchmarks/baselines/sweep.json`` pins every row exactly, and
``tests/bench/test_check_bench.py`` gates one run against it.  These
tests read the same run and state what the rows must show: a visible
gap after the link kill, full recovery, and the HSG, partition and
degradation scenarios.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="module")
def result(quick_record):
    return quick_record("recovery")


def test_goodput_dips_then_recovers(result):
    """The recovery shape: a visible gap, then full recovery."""
    rows = {name: value for name, value, _p, _u in result.comparisons}
    for path in ("H-H", "G-G P2P", "G-G staged"):
        pre = rows[f"{path} goodput pre-kill"]
        post = rows[f"{path} goodput post-recovery"]
        gap = rows[f"{path} recovery gap"]
        detect = rows[f"{path} time-to-detect"]
        assert pre > 0 and post > 0
        # The recovery gap dwarfs a normal inter-delivery interval...
        assert gap * 1000.0 > 3 * (65536 / (pre / 1000.0))
        # ...and the detoured steady state matches the pre-kill rate to 1%
        # (the reverse ring channel has identical capacity).
        assert abs(post - pre) / pre < 0.01
        assert 0 < detect < gap
        assert rows[f"{path} replays"] >= 1
        assert rows[f"{path} packets rerouted"] > 0


def test_hsg_and_partition_and_degradation(result):
    rows = {name: value for name, value, _p, _u in result.comparisons}
    assert rows["HSG link deaths"] >= 1
    assert rows["HSG replays"] >= 1
    assert rows["partition unreachable verdicts"] >= 1
    assert rows["partition link deaths"] == 2.0
    assert rows["mode switches"] >= 1
    assert 0.0 < rows["degraded fraction"] < 1.0
    assert "spins identical" in result.rendered
    assert "unreachable" in result.rendered
