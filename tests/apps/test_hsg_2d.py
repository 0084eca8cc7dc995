"""Tests for the 2-D (pencil) HSG decomposition."""

import numpy as np
import pytest

from repro.apps.hsg import HsgConfig, SpinLattice, grid_for_ranks, run_hsg

GRIDS = [(4, (2, 2)), (8, (2, 4)), (2, (1, 2))]


def test_grid_factorization():
    assert grid_for_ranks(1) == (1, 1)
    assert grid_for_ranks(2) == (1, 2)
    assert grid_for_ranks(4) == (2, 2)
    assert grid_for_ranks(8) == (2, 4)
    assert grid_for_ranks(6) == (2, 3)


def test_default_grid_is_the_slab():
    assert HsgConfig().grid == (1, 2)
    assert HsgConfig(L=64, np_=8).grid == (1, 8)


def test_config_validation():
    with pytest.raises(ValueError, match="does not cover"):
        HsgConfig(L=16, np_=4, grid=(2, 3))
    with pytest.raises(ValueError, match="divisible"):
        HsgConfig(L=10, np_=8, grid=(2, 4))  # 10 % 4 != 0


def _assert_matches_serial(np_, grid, **kw):
    ref = SpinLattice((16, 16, 16), seed=7)
    for _ in range(2):
        ref.sweep()
    res = run_hsg(HsgConfig(L=16, np_=np_, grid=grid, sweeps=2, validate=True, seed=7, **kw))
    np.testing.assert_allclose(res.spins, ref.spins, atol=1e-10)
    assert res.energy_after == pytest.approx(res.energy_before, abs=1e-8)


@pytest.mark.parametrize("np_,grid", GRIDS)
def test_2d_matches_serial(np_, grid):
    _assert_matches_serial(np_, grid)


@pytest.mark.parametrize(
    "kw",
    [{"p2p_mode": "rx"}, {"p2p_mode": "off"}, {"transport": "mpi"}],
    ids=["rx", "off", "mpi"],
)
@pytest.mark.parametrize("np_,grid", GRIDS)
def test_2d_transports_match_serial(np_, grid, kw):
    """The staged APEnet+ modes and MPI run the same pencil exchange."""
    _assert_matches_serial(np_, grid, **kw)


def test_2d_energy_conserved_bigger_lattice():
    res = run_hsg(
        HsgConfig(L=24, np_=4, grid=grid_for_ranks(4), sweeps=3, validate=True, seed=3)
    )
    assert res.energy_after == pytest.approx(res.energy_before, abs=1e-8)


def test_2d_reduces_tnet_at_np8():
    """The §V.D prediction: smaller faces beat the 1-D slab at scale."""
    r1 = run_hsg(HsgConfig(L=256, np_=8, sweeps=2))
    r2 = run_hsg(HsgConfig(L=256, np_=8, grid=grid_for_ranks(8), sweeps=2))
    assert r2.tnet_ps < r1.tnet_ps * 0.95
    # Tnet ends, as for the slab, once the rank's own PUTs have completed.
    assert r2.tnet_ps == 83.792582415698
    assert r2.ttot_ps == 102.58369445800783


def test_2d_total_time_comparable():
    r1 = run_hsg(HsgConfig(L=256, np_=4, sweeps=1))
    r2 = run_hsg(HsgConfig(L=256, np_=4, grid=grid_for_ranks(4), sweeps=1))
    assert r2.ttot_ps == pytest.approx(r1.ttot_ps, rel=0.1)
