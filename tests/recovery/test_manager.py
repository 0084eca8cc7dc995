"""Unit tests for the cluster health monitor (repro.recovery.RecoveryManager).

Exercises the manager in isolation — dead-link bookkeeping, route-table
replacement, detour forwarding and reroute accounting, the partition
verdict, and the sticky P2P -> host-staging degradation oracle — without
building a full cluster.
"""

from repro.net.topology import TorusShape
from repro.recovery import RecoveryManager, RecoveryPolicy
from repro.sim import Simulator
from repro.sim.stats import FaultStats


class FakeCard:
    def __init__(self, name):
        self.name = name


class FakeLink:
    def __init__(self, name, src_coord, dim, direction):
        self.name = name
        self.src_coord = src_coord
        self.dim = dim
        self.direction = direction


class FakeFailure:
    def __init__(self, elapsed_ns=5_000.0, kind="retry_exhausted"):
        self.elapsed_ns = elapsed_ns
        self.kind = kind


def make_manager(nx=2, ny=1, nz=1, policy=None, fault_stats=None):
    sim = Simulator()
    shape = TorusShape(nx, ny, nz)
    return RecoveryManager(sim, shape, policy=policy, fault_stats=fault_stats)


def test_mark_dead_is_idempotent():
    mgr = make_manager()
    mgr.mark_dead((0, 0, 0), 0, 1, site="l", elapsed_ns=7.0, kind="kill")
    assert mgr.is_dead((0, 0, 0), 0, 1)
    assert len(mgr.stats.link_deaths) == 1
    assert mgr.stats.link_deaths[0]["elapsed_ns"] == 7.0
    # Marking the same directed link again is a no-op.
    mgr.mark_dead((0, 0, 0), 0, 1, site="l", kind="kill")
    assert len(mgr.stats.link_deaths) == 1


def test_next_hop_detours_and_counts_rerouted_packets():
    mgr = make_manager()
    # Healthy: static dimension-order hop, nothing counted as rerouted.
    assert mgr.next_hop((0, 0, 0), (1, 0, 0)) == (0, 1)
    assert mgr.stats.packets_rerouted == 0
    mgr.mark_dead((0, 0, 0), 0, 1)
    assert mgr.next_hop((0, 0, 0), (1, 0, 0)) == (0, -1)
    assert mgr.next_hop((0, 0, 0), (1, 0, 0)) == (0, -1)
    assert mgr.stats.packets_rerouted == 2
    # The reverse direction never used the dead channel: not a detour.
    assert mgr.next_hop((1, 0, 0), (0, 0, 0)) == (0, 1)
    assert mgr.stats.packets_rerouted == 2


def test_hop_cache_invalidated_by_later_deaths():
    mgr = make_manager(4, 1, 1)
    assert mgr.next_hop((0, 0, 0), (1, 0, 0)) == (0, 1)
    mgr.mark_dead((0, 0, 0), 0, 1)
    assert mgr.next_hop((0, 0, 0), (1, 0, 0)) == (0, -1)  # caches the detour
    mgr.mark_dead((0, 0, 0), 0, -1)
    # Both channels out of (0,0,0) dead: the cached detour must not survive.
    assert mgr.next_hop((0, 0, 0), (1, 0, 0)) is None


def test_reachable_reports_partition_and_self():
    mgr = make_manager()
    assert mgr.reachable((0, 0, 0), (1, 0, 0))
    assert mgr.reachable((0, 0, 0), (0, 0, 0))
    mgr.mark_dead((0, 0, 0), 0, 1)
    assert mgr.reachable((0, 0, 0), (1, 0, 0))  # reverse channel survives
    mgr.mark_dead((0, 0, 0), 0, -1)
    assert not mgr.reachable((0, 0, 0), (1, 0, 0))
    assert mgr.reachable((0, 0, 0), (0, 0, 0))  # self is always reachable


def test_link_failed_consumes_located_failures_only():
    mgr = make_manager()
    unlocated = FakeLink("pcie", None, None, 0)
    assert mgr.link_failed(unlocated, FakeFailure()) is False
    assert not mgr.routes.dead
    located = FakeLink("n0.ape->n1.ape[0,+1]", (0, 0, 0), 0, 1)
    assert mgr.link_failed(located, FakeFailure(elapsed_ns=42.0)) is True
    assert mgr.is_dead((0, 0, 0), 0, 1)
    death = mgr.stats.link_deaths[0]
    assert death["site"] == "n0.ape->n1.ape[0,+1]"
    assert death["elapsed_ns"] == 42.0


def test_should_degrade_without_fault_stats_is_always_false():
    mgr = make_manager()
    assert mgr.should_degrade(FakeCard("n0.ape")) is False
    assert not mgr.stats.degradations


def test_should_degrade_on_nios_stall_threshold_and_sticky():
    fs = FaultStats()
    policy = RecoveryPolicy(degrade_nios_stalls=4, degrade_tlp_replays=8)
    mgr = make_manager(policy=policy, fault_stats=fs)
    card = FakeCard("n0.ape")
    fs.nios_stalls_by_site["n0.ape.nios"] = 3
    assert mgr.should_degrade(card) is False
    fs.nios_stalls_by_site["n0.ape.nios"] = 4
    assert mgr.should_degrade(card) is True
    assert len(mgr.stats.degradations) == 1
    # Sticky: a sick NIC does not heal even if the counters reset.
    fs.nios_stalls_by_site["n0.ape.nios"] = 0
    assert mgr.should_degrade(card) is True
    assert len(mgr.stats.degradations) == 1  # recorded once
    # Another node's card is judged on its own counters.
    assert mgr.should_degrade(FakeCard("n1.ape")) is False


def test_should_degrade_sums_tlp_replays_across_node_channels():
    fs = FaultStats()
    policy = RecoveryPolicy(degrade_nios_stalls=4, degrade_tlp_replays=8)
    mgr = make_manager(policy=policy, fault_stats=fs)
    fs.tlp_replays_by_site["n0.pcie.gpu0"] = 5
    fs.tlp_replays_by_site["n0.pcie.ape"] = 2
    fs.tlp_replays_by_site["n1.pcie.gpu0"] = 100  # other node: irrelevant
    assert mgr.should_degrade(FakeCard("n0.ape")) is False
    fs.tlp_replays_by_site["n0.pcie.ape"] = 3  # node total hits 8
    assert mgr.should_degrade(FakeCard("n0.ape")) is True
    rec = mgr.stats.degradations[0]
    assert rec["card"] == "n0.ape"
    assert rec["tlp_replays"] == 8
