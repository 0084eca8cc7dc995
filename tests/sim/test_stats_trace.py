"""Unit tests for the statistics helpers (OnlineStats, percentile)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import OnlineStats, percentile


# ---------------------------------------------------------------------------
# OnlineStats
# ---------------------------------------------------------------------------


def test_online_stats_basic():
    s = OnlineStats()
    for x in [1.0, 2.0, 3.0, 4.0]:
        s.add(x)
    assert s.n == 4
    assert s.mean == pytest.approx(2.5)


def test_online_stats_empty():
    s = OnlineStats()
    assert s.n == 0
    assert s.mean == 0.0


@given(xs=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
@settings(max_examples=50)
def test_online_stats_matches_numpy(xs):
    import numpy as np

    s = OnlineStats()
    for x in xs:
        s.add(x)
    assert s.mean == pytest.approx(np.mean(xs), abs=1e-6, rel=1e-9)


# ---------------------------------------------------------------------------
# percentile
# ---------------------------------------------------------------------------


def test_percentile_basics():
    xs = [1, 2, 3, 4, 5]
    assert percentile(xs, 0) == 1
    assert percentile(xs, 100) == 5
    assert percentile(xs, 50) == 3


def test_percentile_interpolates():
    assert percentile([0, 10], 25) == pytest.approx(2.5)


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)
