"""Integration tests: distributed HSG over the simulated interconnects."""

import numpy as np
import pytest

from repro.apps.hsg import HsgConfig, HsgKernelModel, SpinLattice, run_hsg
from repro.faults import FaultPlan
from repro.gpu import FERMI_2050, FERMI_2070
from repro.recovery import RecoveryPolicy
from repro.units import us


def serial_reference(L, sweeps, seed=7):
    ref = SpinLattice((L, L, L), seed=seed)
    for _ in range(sweeps):
        ref.sweep()
    return ref


# ---------------------------------------------------------------------------
# Correctness: distributed == serial through the real simulated network
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["on", "rx", "off"])
def test_apenet_distributed_matches_serial(mode):
    ref = serial_reference(16, 2)
    res = run_hsg(
        HsgConfig(L=16, np_=2, transport="apenet", p2p_mode=mode, sweeps=2, validate=True)
    )
    np.testing.assert_allclose(res.spins, ref.spins, atol=1e-10)
    assert res.energy_after == pytest.approx(res.energy_before, abs=1e-8)


def test_apenet_four_ranks_match_serial():
    ref = serial_reference(16, 2)
    res = run_hsg(HsgConfig(L=16, np_=4, sweeps=2, validate=True))
    np.testing.assert_allclose(res.spins, ref.spins, atol=1e-10)


def test_mpi_distributed_matches_serial():
    ref = serial_reference(16, 2)
    res = run_hsg(HsgConfig(L=16, np_=2, transport="mpi", sweeps=2, validate=True))
    np.testing.assert_allclose(res.spins, ref.spins, atol=1e-10)


def test_single_rank_matches_serial():
    ref = serial_reference(8, 3)
    res = run_hsg(HsgConfig(L=8, np_=1, sweeps=3, validate=True))
    np.testing.assert_allclose(res.spins, ref.spins, atol=1e-12)


@pytest.mark.parametrize("grid", [(1, 4), (2, 2)])
def test_link_kill_keeps_physics_beyond_two_ranks(grid):
    """Rank 0's +X channel dies mid-run.  Its neighbours run one exchange
    ahead and land their next halos before the replayed one; those must
    count for the next exchange, so the spins equal the clean run's."""
    plan = FaultPlan(
        seed=20131741, max_retries=2, ack_timeout=us(2),
        link_kills=(("n0.ape->n1.ape[0,+1]", us(30)),),
    )
    clean = run_hsg(HsgConfig(L=16, np_=4, grid=grid, sweeps=2, validate=True))
    killed = run_hsg(
        HsgConfig(
            L=16, np_=4, grid=grid, sweeps=2, validate=True,
            faults=plan, recovery=RecoveryPolicy(),
        )
    )
    assert len(killed.recovery_stats.link_deaths) == 1
    assert killed.recovery_stats.replays == 1
    np.testing.assert_array_equal(killed.spins, clean.spins)


# ---------------------------------------------------------------------------
# Kernel model
# ---------------------------------------------------------------------------


def test_rate_anchors():
    m = HsgKernelModel(FERMI_2050)
    assert m.rate_ps(256**3) == pytest.approx(921, rel=0.01)
    assert m.rate_ps(256**3 // 2) == pytest.approx(832, rel=0.01)
    m70 = HsgKernelModel(FERMI_2070)
    assert m70.rate_ps(512**3) == pytest.approx(1471, rel=0.01)


def test_rate_monotone_in_volume():
    m = HsgKernelModel(FERMI_2050)
    vols = [2**21, 2**22, 2**23, 2**24, 2**26, 2**27]
    rates = [m.rate_ps(v) for v in vols]
    assert rates == sorted(rates)


def test_l512_does_not_fit_c2050():
    m = HsgKernelModel(FERMI_2050)
    assert not m.fits(512**3)
    assert HsgKernelModel(FERMI_2070).fits(512**3)


@pytest.mark.parametrize("L, spec", [(256, FERMI_2050), (512, FERMI_2070)])
def test_single_node_board_follows_the_footprint_rule(L, spec):
    """A one-node APEnet+ run takes the 3 GB C2050 unless the lattice
    overflows it, as L=512 does (§V.D): then the 6 GB C2070."""
    from repro.apps.hsg.distributed import _apenet_cluster
    from repro.sim import Simulator

    cluster = _apenet_cluster(Simulator(), HsgConfig(L=L, np_=1))
    assert cluster.nodes[0].gpu.spec is spec


# ---------------------------------------------------------------------------
# Performance reproduction (Table II/III headline rows)
# ---------------------------------------------------------------------------


def test_table2_np1():
    r = run_hsg(HsgConfig(L=256, np_=1, sweeps=1))
    assert r.ttot_ps == pytest.approx(921, rel=0.05)


def test_table2_np2():
    r = run_hsg(HsgConfig(L=256, np_=2, sweeps=2))
    assert r.ttot_ps == pytest.approx(416, rel=0.05)
    assert r.tnet_ps == pytest.approx(97, rel=0.15)
    assert r.tbnd_tnet_ps == pytest.approx(108, rel=0.15)


def test_table2_np4():
    r = run_hsg(HsgConfig(L=256, np_=4, sweeps=2))
    assert r.ttot_ps == pytest.approx(202, rel=0.05)


def test_table3_staging_is_slowest():
    tnet = {}
    for mode in ("on", "rx", "off"):
        tnet[mode] = run_hsg(HsgConfig(L=256, np_=2, p2p_mode=mode, sweeps=2)).tnet_ps
    assert tnet["off"] > tnet["on"]
    assert tnet["off"] > tnet["rx"]
    # The paper's P2P advantage over staging (14-20% for RX / ON).
    assert tnet["off"] / tnet["on"] > 1.04


def test_bulk_hides_communication_at_np2():
    """Paper §V.D: "for L = 256 and two nodes, the bulk computation is long
    enough to completely hide the boundary calculation and the
    communication"."""
    r = run_hsg(HsgConfig(L=256, np_=2, sweeps=2))
    assert r.tbnd_tnet_ps < r.ttot_ps * 0.5


def test_fig11_superlinear_at_512():
    r1 = run_hsg(HsgConfig(L=512, np_=1, sweeps=1))
    r2 = run_hsg(HsgConfig(L=512, np_=2, sweeps=1))
    assert r2.speedup_vs(r1) > 2.1  # super-linear


def test_fig11_l128_stops_scaling():
    r1 = run_hsg(HsgConfig(L=128, np_=1, sweeps=2))
    r4 = run_hsg(HsgConfig(L=128, np_=4, sweeps=2))
    r8 = run_hsg(HsgConfig(L=128, np_=8, sweeps=2))
    # Beyond four nodes the small lattice gains nothing.
    assert r8.speedup_vs(r1) < r4.speedup_vs(r1) * 1.10


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        HsgConfig(L=100, np_=3)
    with pytest.raises(ValueError):
        HsgConfig(L=128, np_=2, transport="smoke-signals")
    with pytest.raises(ValueError):
        HsgConfig(L=128, np_=2, p2p_mode="maybe")
