"""Flow-mode BFS: traversal correctness, determinism, detours.

The traversal layer of :func:`repro.scale.bfs.run_scale_bfs` must be
indistinguishable from the single-process reference
(:func:`repro.apps.bfs.serial.serial_bfs`) on the same R-MAT graph, for
any shard count; the timing layer must respond to faults the way the
recovery router does (partition -> ValueError).
:class:`~repro.net.topology.RouteTable` — the vectorised all-pairs
next-hop table every consumer routes by — is proven hop-identical to the
independent per-hop oracle in ``tests/net/route_oracle.py`` by a
hypothesis sweep over random shapes and fault seeds.  The BFS takes every
pair's hops and link loads from ``RouteTable.walk``, which is checked
pair by pair against ``path()`` on a healthy and a damaged torus, and its
link loads are checked against the flow model's per-link bytes.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apenet.config import DEFAULT_CONFIG
from repro.apps.bfs.csr import CSRGraph
from repro.apps.bfs.rmat import rmat_edges
from repro.apps.bfs.serial import UNVISITED, serial_bfs, traversed_edges
from repro.net.topology import RouteTable, TorusShape
from repro.scale.bfs import COUNT_BYTES, PAIR_BYTES, _level_comm, run_scale_bfs
from repro.scale.flow import BulkTransfer, FlowNetwork, calibrate, wire_bytes
from tests.net.route_oracle import hop_route

pytestmark = pytest.mark.scale


@pytest.fixture(scope="module")
def small_run():
    return run_scale_bfs((3, 3, 3), 10, seed=1, shards=1)


def test_traversal_matches_serial_reference(small_run):
    res = small_run
    graph = CSRGraph.from_edges(1 << 10, rmat_edges(10, 16, seed=1))
    levels, _parents = serial_bfs(graph, res.root)
    visited = levels != UNVISITED
    assert res.n_vertices == 1 << 10
    assert res.n_edges == graph.n_directed_edges
    assert res.reached == int(visited.sum())
    assert res.levels_checksum == int(levels[visited].sum())
    assert res.n_levels == int(levels.max()) + 1
    assert res.traversed == traversed_edges(graph, levels)
    assert res.teps > 0 and res.total_time_ns > 0
    assert res.frontier_peak > 0 and res.comm_bytes > 0


@pytest.mark.parametrize("shards", [2, 4, 27, 64])
def test_any_shard_count_is_bit_identical(small_run, shards):
    """``shards`` is only recorded: it never changes a result."""
    res = run_scale_bfs((3, 3, 3), 10, seed=1, shards=shards)
    a = dataclasses.asdict(small_run)
    b = dataclasses.asdict(res)
    assert b.pop("shards") == min(shards, 27)  # capped at the rank count
    a.pop("shards")
    assert a == b


def test_dead_link_changes_timing_but_never_the_traversal(small_run):
    res = run_scale_bfs((3, 3, 3), 10, seed=1, shards=1, dead_links=((0, 0, 1),))
    assert res.dead_links == 1
    # Traversal identical: the graph doesn't care about the interconnect.
    for fld in ("reached", "traversed", "levels_checksum", "n_levels", "root"):
        assert getattr(res, fld) == getattr(small_run, fld)
    # Wire bytes are per-pair (payload + headers + count messages), so the
    # detour moves them to other links without changing the total.
    assert res.comm_bytes == small_run.comm_bytes
    # The fault is visible in the timing: the affected pairs' hop counts
    # (latency term) and link loads (serialisation term) both shift.
    # Note the direction is NOT guaranteed — rerouting can relieve a
    # per-level hotspot link, and the serialisation term is a max — but
    # the shift must stay far below the level-time scale.
    assert res.total_time_ns != small_run.total_time_ns
    assert (
        abs(res.total_time_ns - small_run.total_time_ns)
        / small_run.total_time_ns
        < 0.05
    )


def test_partitioned_torus_raises():
    # Both X channels out of rank 0 on a 2-node line: rank 0 cannot send.
    with pytest.raises(ValueError, match="partitioned"):
        run_scale_bfs((2, 1, 1), 8, seed=1, dead_links=((0, 0, 1), (0, 0, -1)))


def test_root_defaults_to_first_connected_vertex():
    res = run_scale_bfs((2, 2, 2), 8, seed=3)
    graph = CSRGraph.from_edges(1 << 8, rmat_edges(8, 16, seed=3))
    degrees = np.diff(graph.row_ptr)
    assert res.root == int(np.nonzero(degrees > 0)[0][0])


# ---------------------------------------------------------------------------
# RouteTable == the per-hop oracle (route_avoiding from every hop)
# ---------------------------------------------------------------------------

SHAPES = [(2, 2, 1), (3, 2, 1), (2, 2, 2), (3, 3, 3), (4, 2, 2), (5, 4, 3)]


def _all_links(dims):
    return [
        (rank, dim, direction)
        for rank in range(dims[0] * dims[1] * dims[2])
        for dim, extent in enumerate(dims)
        if extent > 1
        for direction in (1, -1)
    ]


def _by_coord(shape, links):
    """Rank-keyed dead-link specs as the oracle's ``(coord, dim, dir)`` set."""
    return {(shape.coord(rank), dim, direction) for rank, dim, direction in links}


@settings(max_examples=20, deadline=None)
@given(
    dims=st.sampled_from(SHAPES),
    fault_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_detour_table_matches_hop_route(dims, fault_seed):
    shape = TorusShape(*dims)
    rng = random.Random(fault_seed)
    n_dead = rng.randrange(1, 5)
    links = rng.sample(_all_links(dims), n_dead)
    table = RouteTable(shape, links)
    dead = _by_coord(shape, links)
    pairs = [
        (rng.randrange(shape.size), rng.randrange(shape.size)) for _ in range(40)
    ]
    for src, dst in pairs:
        expected = hop_route(shape, src, dst, dead)
        got = table.path(src, dst)
        assert got == expected, (dims, sorted(dead), src, dst)


@pytest.mark.parametrize(
    "links",
    [[], [(0, 0, 1), (0, 1, 1), (13, 2, -1), (14, 0, -1)]],
    ids=["healthy", "damaged"],
)
def test_detour_table_exhaustive_on_one_damaged_torus(links):
    """All-pairs equality on one fixed shape, so no pair is ever sampled out.

    ``path()`` must match the per-hop oracle, and ``walk`` must give every
    pair ``len(path())`` hops and every link the weight summed over
    ``path()``.  ``next_hop()``, ``path()`` and ``walk`` read the same
    arrays, healthy torus or damaged; ``tests/net/test_topology.py`` pins
    the healthy ones to dimension order on ten shapes.
    """
    shape = TorusShape(3, 3, 3)
    table = RouteTable(shape, links)
    dead = _by_coord(shape, links)
    slots = [(dim, direction) for dim, direction, _ in shape.neighbors((0, 0, 0))]
    src, dst = (a.ravel() for a in np.indices((shape.size, shape.size)))
    weight = np.random.default_rng(7).integers(1, 10_000, src.size)
    hops, load = table.walk(src, dst, weight)
    expected = np.zeros_like(load)
    for i, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
        path = table.path(a, b)
        assert path == hop_route(shape, a, b, dead)
        assert hops[i] == len(path)
        for rank, dim, direction in path:
            expected[rank, slots.index((dim, direction))] += weight[i]
    np.testing.assert_array_equal(load, expected)


def test_bfs_link_loads_match_the_flow_model():
    """One level's pair traffic loads the same links in the BFS level cost
    and in ``FlowNetwork.run_transfers`` (whose per-link bytes the parity
    probe certifies against the per-packet stack)."""
    dims = (4, 3, 2)
    dead = [(0, 0, 1), (5, 1, -1), (7, 2, 1), (13, 2, -1)]
    R = dims[0] * dims[1] * dims[2]
    # Every ordered pair talks, so detoured bytes pile onto busy links and
    # the damaged torus's max load differs from the healthy one's.
    src, dst = (a.ravel() for a in np.indices((R, R)))
    src, dst = src[src != dst], dst[src != dst]
    counts = np.random.default_rng(11).integers(1, 1500, src.size)  # 1-3 fragments
    net = FlowNetwork(dims, dead_links=dead)
    _time, wire, max_load = _level_comm(
        net.routes, DEFAULT_CONFIG.link_bandwidth, calibrate(), src, dst, counts
    )
    transfers = []
    for a, b, c in zip(src.tolist(), dst.tolist(), counts.tolist()):
        transfers.append(BulkTransfer(a, b, c * PAIR_BYTES))
        transfers.append(BulkTransfer(a, b, COUNT_BYTES))
    agg = net.run_transfers(transfers)
    assert None not in agg.completions
    assert max_load == max(agg.link_bytes.values())
    assert wire == sum(wire_bytes(tr.nbytes) for tr in transfers)
