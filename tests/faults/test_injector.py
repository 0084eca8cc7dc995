"""Unit tests for the fault plan, the seeded injector and its accounting."""

import pytest

from repro.faults import FaultInjector, FaultPlan, LinkFailure, corruption_probability
from repro.sim import FaultStats
from repro.units import us


# ---------------------------------------------------------------------------
# corruption_probability
# ---------------------------------------------------------------------------


def test_corruption_probability_edges():
    assert corruption_probability(0.0, 4096) == 0.0
    assert corruption_probability(1e-9, 0) == 0.0
    assert corruption_probability(1.0, 1) == 1.0
    assert corruption_probability(0.5, 10_000) == 1.0


def test_corruption_probability_small_ber_approximation():
    # For tiny BER, P ~= 8 * nbytes * ber.
    p = corruption_probability(1e-12, 4096)
    assert p == pytest.approx(8 * 4096 * 1e-12, rel=1e-4)


def test_corruption_probability_monotone():
    probs = [corruption_probability(b, 4096) for b in (1e-9, 1e-7, 1e-5, 1e-3)]
    assert probs == sorted(probs)
    assert all(0.0 < p < 1.0 for p in probs)
    sizes = [corruption_probability(1e-6, n) for n in (64, 512, 4096, 32768)]
    assert sizes == sorted(sizes)


# ---------------------------------------------------------------------------
# FaultPlan validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        {"link_ber": -0.1},
        {"link_ber": 1.5},
        {"link_drop_rate": 2.0},
        {"tlp_ber": -1e-9},
        {"nios_stall_rate": 1.0001},
        {"max_retries": -1},
        {"ack_timeout": 0.0},
        {"ack_timeout": -5.0},
        {"backoff": 0.5},
        {"nios_slowdown": 0.9},
        {"nios_stall_ns": -1.0},
    ],
)
def test_plan_rejects_invalid_values(kw):
    with pytest.raises(ValueError):
        FaultPlan(**kw)


def test_plan_is_frozen_and_hashable():
    plan = FaultPlan(seed=1, link_ber=1e-6)
    with pytest.raises(Exception):
        plan.link_ber = 0.5
    assert hash(plan) == hash(FaultPlan(seed=1, link_ber=1e-6))


# ---------------------------------------------------------------------------
# Seeded per-site streams
# ---------------------------------------------------------------------------


def test_streams_are_deterministic_across_injectors():
    a = FaultInjector(FaultPlan(seed=42, link_ber=1e-5))
    b = FaultInjector(FaultPlan(seed=42, link_ber=1e-5))
    fa = [a.link_packet_fate("linkX", 4096) for _ in range(500)]
    fb = [b.link_packet_fate("linkX", 4096) for _ in range(500)]
    assert fa == fb


def test_streams_differ_by_seed_and_site():
    def seq(seed, site):
        inj = FaultInjector(FaultPlan(seed=seed, link_ber=3e-5))
        return [inj.link_packet_fate(site, 4096) for _ in range(400)]

    assert seq(1, "l") != seq(2, "l")
    assert seq(1, "l") != seq(1, "m")


def test_site_streams_independent_of_interleaving():
    """Draw order across sites must not change any site's own sequence."""
    plan = FaultPlan(seed=7, link_ber=2e-5)
    inj1 = FaultInjector(plan)
    seq_a = [inj1.link_packet_fate("a", 4096) for _ in range(200)]
    seq_b = [inj1.link_packet_fate("b", 4096) for _ in range(200)]

    inj2 = FaultInjector(plan)
    inter_a, inter_b = [], []
    for _ in range(200):  # interleaved draws
        inter_a.append(inj2.link_packet_fate("a", 4096))
        inter_b.append(inj2.link_packet_fate("b", 4096))
    assert inter_a == seq_a
    assert inter_b == seq_b


def test_inactive_plan_never_faults_and_never_draws():
    inj = FaultInjector(FaultPlan(seed=123))
    for _ in range(100):
        assert inj.link_packet_fate("l", 4096) == "ok"
        assert inj.tlp_extra_wire("pcie", 4096) == 0
        assert inj.nios_inflate("nios", "rx", 500.0) == 500.0
    # Zero-rate classes consume no draws: no stream was ever materialised.
    assert inj._streams == {}
    assert inj.stats.retransmits == 0
    assert inj.stats.goodput_fraction() == 1.0


# ---------------------------------------------------------------------------
# TLP replay site
# ---------------------------------------------------------------------------


def test_tlp_replays_accumulate_wire_bytes():
    inj = FaultInjector(FaultPlan(seed=3, tlp_ber=1e-5))
    total_extra = sum(inj.tlp_extra_wire("p", 4096) for _ in range(2000))
    assert total_extra > 0
    assert total_extra == inj.stats.tlp_replay_bytes
    assert inj.stats.tlp_replays == total_extra // 4096


def test_tlp_budget_exhaustion_raises_structured_failure():
    # BER high enough that P(corrupt) == 1: replays exceed any budget.
    inj = FaultInjector(FaultPlan(seed=0, tlp_ber=0.5, max_retries=4))
    with pytest.raises(LinkFailure) as ei:
        inj.tlp_extra_wire("pcie.dn", 4096)
    assert ei.value.site == "pcie.dn"
    assert ei.value.attempts == 5
    assert ei.value.kind == "tlp-replay"
    assert inj.stats.link_failures and inj.stats.link_failures[0]["site"] == "pcie.dn"


# ---------------------------------------------------------------------------
# Nios II site
# ---------------------------------------------------------------------------


def test_nios_slowdown_scales_duration():
    inj = FaultInjector(FaultPlan(seed=0, nios_slowdown=2.5))
    assert inj.nios_inflate("nios", "rx", 100.0) == 250.0
    assert inj.stats.nios_stalls == 0


def test_nios_stall_rate_one_always_stalls():
    inj = FaultInjector(FaultPlan(seed=0, nios_stall_rate=1.0, nios_stall_ns=us(2)))
    inflated = inj.nios_inflate("nios", "rx", 100.0)
    assert inflated == 100.0 + us(2)
    assert inj.stats.nios_stalls == 1
    assert inj.stats.nios_stall_time == us(2)


# ---------------------------------------------------------------------------
# FaultStats
# ---------------------------------------------------------------------------


def test_fault_stats_goodput_fraction():
    s = FaultStats()
    assert s.goodput_fraction() == 1.0  # idle
    s.payload_bytes = 750
    s.wire_bytes = 1000
    assert s.goodput_fraction() == 0.75


def test_fault_stats_shared_across_injectors():
    shared = FaultStats()
    a = FaultInjector(FaultPlan(seed=1, nios_stall_rate=1.0), stats=shared)
    b = FaultInjector(FaultPlan(seed=2, nios_stall_rate=1.0), stats=shared)
    a.nios_inflate("x", "rx", 1.0)
    b.nios_inflate("y", "rx", 1.0)
    assert shared.nios_stalls == 2
