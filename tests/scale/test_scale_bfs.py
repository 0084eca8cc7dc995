"""Sharded flow-mode BFS: traversal correctness, determinism, detours.

The traversal layer of :func:`repro.scale.bfs.run_scale_bfs` must be
indistinguishable from the single-process reference
(:func:`repro.apps.bfs.serial.serial_bfs`) on the same R-MAT graph, for
any shard count; the timing layer must respond to faults the way the
recovery router does (slower, never faster; partition -> ValueError).
:class:`~repro.net.topology.RouteTable` — the vectorised all-pairs
next-hop table every consumer routes by — is proven hop-identical to the
independent per-hop oracle in ``tests/net/route_oracle.py`` by a
hypothesis sweep over random shapes and fault seeds.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bfs.csr import CSRGraph
from repro.apps.bfs.rmat import rmat_edges
from repro.apps.bfs.serial import UNVISITED, serial_bfs, traversed_edges
from repro.net.topology import RouteTable, TorusShape
from repro.scale.bfs import run_scale_bfs
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
    """Contiguous split + order-preserving merge: shards never show."""
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


def test_detour_table_exhaustive_on_one_damaged_torus():
    """All-pairs equality on one fixed shape, so no pair is ever sampled out."""
    shape = TorusShape(3, 3, 3)
    links = [(0, 0, 1), (0, 1, 1), (13, 2, -1), (14, 0, -1)]
    table = RouteTable(shape, links)
    dead = _by_coord(shape, links)
    for src in range(shape.size):
        for dst in range(shape.size):
            assert table.path(src, dst) == hop_route(shape, src, dst, dead)
