"""Unit tests for torus links, virtual channels, and the router."""

import pytest

from repro.apenet import DEFAULT_CONFIG, Router, TorusLink, TorusPort
from repro.net.packet import ApePacket, MessageInfo
from repro.net.topology import RouteTable, TorusShape
from repro.sim import Simulator
from repro.units import Gbps, us


def make_packet(dst, src=(0, 0, 0), nbytes=4096, msg_id=1):
    msg = MessageInfo(msg_id, nbytes, 0, 0x1000)
    return ApePacket(dst, src, 0x1000, nbytes, msg)


# ---------------------------------------------------------------------------
# TorusPort / TorusLink
# ---------------------------------------------------------------------------


def test_port_credits_block_when_full():
    sim = Simulator()
    port = TorusPort(sim, capacity_per_vc=8192)
    granted = []

    def sender():
        for i in range(3):
            yield port.reserve(0, 4128)
            granted.append((i, sim.now))

    def drainer():
        yield sim.timeout(us(5))
        port.release(0, 4128)

    sim.process(sender())
    sim.process(drainer())
    sim.run()
    # Two packets fit (8256 > 8192 -> only 1... 4128*2 = 8256 > 8192).
    assert granted[0][1] == 0.0
    assert granted[1][1] == us(5)


def test_port_vcs_are_independent():
    sim = Simulator()
    port = TorusPort(sim, capacity_per_vc=4200)
    log = []

    def sender(vc):
        yield port.reserve(vc, 4128)
        log.append((vc, sim.now))
        yield port.reserve(vc, 4128)  # second needs a release
        log.append((vc, sim.now))

    def drain():
        yield sim.timeout(us(1))
        port.release(0, 4128)
        yield sim.timeout(us(1))
        port.release(1, 4128)

    sim.process(sender(0))
    sim.process(sender(1))
    sim.process(drain())
    sim.run()
    # Both VCs got their first grant immediately — VC0 being full never
    # blocked VC1.
    assert (0, 0.0) in log and (1, 0.0) in log


def test_link_pipelines_latency():
    sim = Simulator()
    port = TorusPort(sim, capacity_per_vc=64 * 1024)
    link = TorusLink(sim, bandwidth=Gbps(28), latency=us(1), dst_port=port)
    sent = []

    def sender():
        for i in range(2):
            pkt = make_packet((1, 0, 0), msg_id=i)
            yield from link.send(pkt, 0)
            sent.append(sim.now)

    sim.run_process(sender())
    # The sender resumes after serialization only (latency pipelines):
    # 4128B / 3.5B/ns ~ 1179ns per packet.
    assert sent[0] == pytest.approx(4128 / 3.5)
    assert sent[1] == pytest.approx(2 * 4128 / 3.5)
    # Deliveries happen one latency later.
    sim.run()
    assert link.packets_sent == 2
    assert [len(q) for q in port.queues] == [2, 0]


# ---------------------------------------------------------------------------
# Router: routing decisions and VC assignment
# ---------------------------------------------------------------------------


def build_router(coord=(0, 0, 0), shape=TorusShape(4, 2, 1), **cfg_kw):
    sim = Simulator()
    delivered = []

    def deliver(pkt):
        delivered.append(pkt)
        return None

    cfg = DEFAULT_CONFIG.with_(**cfg_kw) if cfg_kw else DEFAULT_CONFIG
    rtr = Router(sim, coord, RouteTable(shape), cfg, deliver_local=deliver)
    return sim, rtr, delivered


def test_vc_dateline_positive_crossing():
    sim, rtr, _ = build_router(coord=(3, 0, 0))
    # Hop +X from x=3 (extent 4) wraps: packet must move to VC1.
    assert rtr._vc_after_hop(0, (0, 1), prev_dim=0) == 1
    # Same hop from x=1 stays on VC0.
    sim2, rtr2, _ = build_router(coord=(1, 0, 0))
    assert rtr2._vc_after_hop(0, (0, 1), prev_dim=0) == 0


def test_vc_dateline_negative_crossing():
    sim, rtr, _ = build_router(coord=(0, 0, 0))
    assert rtr._vc_after_hop(0, (0, -1), prev_dim=0) == 1


def test_vc_resets_on_dimension_turn():
    sim, rtr, _ = build_router(coord=(2, 0, 0))
    # A VC1 packet turning into Y restarts on VC0.
    assert rtr._vc_after_hop(1, (1, 1), prev_dim=0) == 0


def test_local_delivery():
    sim, rtr, delivered = build_router(coord=(0, 0, 0))
    pkt = make_packet((0, 0, 0))

    def proc():
        yield rtr.inject(pkt)
        yield sim.timeout(us(1))

    sim.run_process(proc())
    assert delivered == [pkt]


def test_flush_mode_discards():
    sim, rtr, delivered = build_router(coord=(0, 0, 0), flush_tx=True)

    def proc():
        yield rtr.inject(make_packet((1, 0, 0)))
        yield sim.timeout(us(1))

    sim.run_process(proc())
    # The switch took the packet off the TX FIFO and dropped it: no local
    # delivery, and no "no link" error although no link is wired.
    assert len(rtr.inject_fifo) == 0
    assert delivered == []


def test_missing_link_raises():
    sim, rtr, _ = build_router(coord=(0, 0, 0))

    def proc():
        yield rtr.inject(make_packet((1, 0, 0)))  # no links wired
        yield sim.timeout(us(1))

    with pytest.raises(RuntimeError, match="no link"):
        sim.run_process(proc())


def test_dimension_order_route_used():
    """A packet for (1,1,0) must leave on X first, then Y at the next hop."""
    sim = Simulator()
    routes = RouteTable(TorusShape(4, 2, 1))  # one table, shared as in a cluster
    cfg = DEFAULT_CONFIG
    arrivals = []

    r0 = Router(sim, (0, 0, 0), routes, cfg, deliver_local=lambda p: None, name="r0")
    r1 = Router(sim, (1, 0, 0), routes, cfg, deliver_local=lambda p: None, name="r1")
    r11 = Router(
        sim, (1, 1, 0), routes, cfg,
        deliver_local=lambda p: arrivals.append(p) or None, name="r11",
    )
    # Wire the two hops of the DOR route (plus nothing else).
    l0 = TorusLink(sim, Gbps(28), 150.0, r1.port(0, -1), "r0->r1")
    r0.wire(0, 1, l0)
    l1 = TorusLink(sim, Gbps(28), 150.0, r11.port(1, -1), "r1->r11")
    r1.wire(1, 1, l1)

    def proc():
        yield r0.inject(make_packet((1, 1, 0)))
        yield sim.timeout(us(10))

    sim.run_process(proc())
    assert len(arrivals) == 1
    assert l0.packets_sent == 1
    assert l1.packets_sent == 1


def test_cluster_routers_share_one_route_table():
    """The cluster builds one route table for all its routers, not one each;
    with a recovery manager attached it is the manager's healthy table.
    Every cluster of one shape shares that healthy table, whose arrays are
    read-only once built."""
    from repro.net.cluster import build_apenet_cluster
    from repro.recovery import RecoveryPolicy

    tables = []
    for recovery in (None, RecoveryPolicy()):
        cluster = build_apenet_cluster(Simulator(), TorusShape(4, 2, 1), recovery=recovery)
        routes = cluster.nodes[0].card.router.routes
        assert routes.shape == cluster.shape and not routes.dead
        assert all(node.card.router.routes is routes for node in cluster.nodes)
        tables.append(routes)
    assert routes is cluster.recovery.healthy_routes
    assert tables[0] is tables[1]
    assert routes.next_hop((0, 0, 0), (1, 1, 0)) == (0, 1)
    next_slot, _, _ = routes._arrays()
    with pytest.raises(ValueError):
        next_slot[0, 1] = 2
