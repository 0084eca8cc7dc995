"""Unit + property tests for the BFS substrate (RMAT, CSR, serial BFS)."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bfs import (
    BfsConfig,
    CSRGraph,
    csr,
    rmat_edges,
    rmat_graph,
    run_bfs,
    serial_bfs,
    traversed_edges,
    validate_bfs,
)
from repro.scale.bfs import run_scale_bfs


# ---------------------------------------------------------------------------
# RMAT generator
# ---------------------------------------------------------------------------


def test_rmat_shape_and_range():
    e = rmat_edges(10, edgefactor=16, seed=1)
    assert e.shape == (2, 16 << 10)
    assert e.min() >= 0
    assert e.max() < 1 << 10


def test_rmat_deterministic():
    np.testing.assert_array_equal(rmat_edges(8, seed=5), rmat_edges(8, seed=5))
    assert not np.array_equal(rmat_edges(8, seed=5), rmat_edges(8, seed=6))


def test_rmat_scramble_balances_hubs():
    """Scrambling spreads the high-degree quadrant across the id space."""
    n = 1 << 12
    raw = rmat_edges(12, seed=2, scramble=False)
    scr = rmat_edges(12, seed=2, scramble=True)

    def first_quarter_share(edges):
        return (edges[0] < n // 4).mean()

    assert first_quarter_share(raw) > 0.5  # unscrambled hubs at low ids
    assert 0.15 < first_quarter_share(scr) < 0.40  # roughly uniform


def test_rmat_rejects_bad_params():
    with pytest.raises(ValueError):
        rmat_edges(0)
    with pytest.raises(ValueError):
        rmat_edges(8, a=0.5, b=0.3, c=0.3)


# ---------------------------------------------------------------------------
# CSR
# ---------------------------------------------------------------------------


def test_csr_basic_build():
    edges = np.array([[0, 1, 2, 0], [1, 2, 0, 2]])
    g = CSRGraph.from_edges(3, edges)
    # Undirected: each edge both ways, deduped.
    assert set(g.neighbors(0)) == {1, 2}
    assert set(g.neighbors(1)) == {0, 2}
    assert np.diff(g.row_ptr)[2] == 2


def test_csr_drops_self_loops_and_dupes():
    edges = np.array([[0, 0, 1, 1], [0, 1, 0, 0]])
    g = CSRGraph.from_edges(2, edges)
    assert np.diff(g.row_ptr).tolist() == [1, 1]
    assert g.n_directed_edges == 2


def test_csr_rejects_out_of_range():
    with pytest.raises(ValueError):
        CSRGraph.from_edges(2, np.array([[0], [5]]))


def test_csr_neighbors_of_set_matches_loop():
    rng = np.random.default_rng(0)
    edges = rng.integers(0, 50, size=(2, 300))
    g = CSRGraph.from_edges(50, edges)
    vs = np.array([3, 7, 7, 20])
    nbrs, pars = g.neighbors_of_set(vs)
    expect_n, expect_p = [], []
    for v in vs:
        for u in g.neighbors(int(v)):
            expect_n.append(u)
            expect_p.append(v)
    np.testing.assert_array_equal(nbrs, expect_n)
    np.testing.assert_array_equal(pars, expect_p)


# ---------------------------------------------------------------------------
# rmat_graph: the one graph builder
# ---------------------------------------------------------------------------


@pytest.fixture
def rmat_edges_calls(monkeypatch):
    """Empty the graph slot and count the edge lists ``rmat_graph`` generates."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return rmat_edges(*args, **kwargs)

    monkeypatch.setattr(csr, "_last_graph", (None, None))
    monkeypatch.setattr(csr, "rmat_edges", counting)
    return calls


def _assert_fresh_build(graph, scale, edgefactor, seed):
    fresh = CSRGraph.from_edges(1 << scale, rmat_edges(scale, edgefactor, seed=seed))
    assert graph.n_vertices == fresh.n_vertices
    np.testing.assert_array_equal(graph.row_ptr, fresh.row_ptr)
    np.testing.assert_array_equal(graph.col_idx, fresh.col_idx)


def test_rmat_graph_same_key_same_object(rmat_edges_calls):
    g = rmat_graph(8, 16, seed=5)
    assert rmat_graph(8, 16, seed=5) is g
    assert len(rmat_edges_calls) == 1
    _assert_fresh_build(g, 8, 16, 5)


@pytest.mark.parametrize("key", [(8, 16, 6), (8, 8, 5), (9, 16, 5)], ids=["seed", "edgefactor", "scale"])
def test_rmat_graph_key_holds_every_argument(key, rmat_edges_calls):
    """A key differing from the held one in any one argument builds anew."""
    rmat_graph(8, 16, seed=5)
    scale, edgefactor, seed = key
    _assert_fresh_build(rmat_graph(scale, edgefactor, seed=seed), scale, edgefactor, seed)
    assert len(rmat_edges_calls) == 2


@pytest.mark.parametrize("field", ["row_ptr", "col_idx"])
def test_rmat_graph_arrays_are_read_only(field, rmat_edges_calls):
    array = getattr(rmat_graph(6, 16, seed=1), field)
    with pytest.raises(ValueError):
        array[0] = 1
    with pytest.raises(ValueError):
        array[1:3] += 1


def test_rmat_graph_new_key_drops_the_old_graph_before_building(rmat_edges_calls, monkeypatch):
    old = weakref.ref(rmat_graph(7, 16, seed=1))
    alive_during_build = []
    counting = csr.rmat_edges

    def spying(*args, **kwargs):
        alive_during_build.append(old() is not None)
        return counting(*args, **kwargs)

    monkeypatch.setattr(csr, "rmat_edges", spying)
    new = rmat_graph(7, 16, seed=2)
    assert alive_during_build == [False]
    assert old() is None
    assert rmat_graph(7, 16, seed=2) is new


def test_run_bfs_validates_on_a_slot_hit(rmat_edges_calls):
    cfg = BfsConfig(scale=10, np_=2, validate=True)
    first, second = run_bfs(cfg), run_bfs(cfg)
    assert len(rmat_edges_calls) == 1
    assert first.validation_errors == [] and second.validation_errors == []
    np.testing.assert_array_equal(first.levels, second.levels)
    np.testing.assert_array_equal(first.parents, second.parents)


def test_run_bfs_and_run_scale_bfs_share_one_graph(rmat_edges_calls):
    app = run_bfs(BfsConfig(scale=9, edgefactor=16, seed=11, np_=2, validate=False))
    flow = run_scale_bfs((2, 2, 2), 9, edgefactor=16, seed=11)
    assert len(rmat_edges_calls) == 1
    assert flow.n_edges == rmat_graph(9, 16, seed=11).n_directed_edges
    assert app.traversed > 0


# ---------------------------------------------------------------------------
# Serial BFS
# ---------------------------------------------------------------------------


def test_serial_bfs_tiny_graph():
    #  0-1-2   3 (isolated)
    edges = np.array([[0, 1], [1, 2]])
    g = CSRGraph.from_edges(4, edges)
    levels, parents = serial_bfs(g, 0)
    np.testing.assert_array_equal(levels, [0, 1, 2, -1])
    assert parents[0] == 0
    assert parents[1] == 0
    assert parents[2] == 1
    assert parents[3] == -1


def test_serial_bfs_validates_clean():
    g = CSRGraph.from_edges(1 << 10, rmat_edges(10, seed=4))
    root = int(np.argmax(np.diff(g.row_ptr)))
    levels, parents = serial_bfs(g, root)
    assert validate_bfs(g, root, levels, parents) == []


def test_validate_catches_corruption():
    g = CSRGraph.from_edges(1 << 8, rmat_edges(8, seed=4))
    root = int(np.argmax(np.diff(g.row_ptr)))
    levels, parents = serial_bfs(g, root)
    bad_levels = levels.copy()
    visited = np.flatnonzero(bad_levels > 0)
    bad_levels[visited[0]] += 5
    assert validate_bfs(g, root, bad_levels, parents) != []


def test_traversed_edges_counts_component():
    edges = np.array([[0, 1, 3], [1, 2, 4]])  # comp {0,1,2} and {3,4}
    g = CSRGraph.from_edges(5, edges)
    levels, _ = serial_bfs(g, 0)
    assert traversed_edges(g, levels) == 2


@given(scale=st.integers(5, 9), seed=st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_serial_bfs_levels_are_shortest_paths(scale, seed):
    """BFS levels equal shortest-path distances (checked via scipy)."""
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph

    n = 1 << scale
    g = CSRGraph.from_edges(n, rmat_edges(scale, seed=seed))
    root = int(np.argmax(np.diff(g.row_ptr)))
    levels, parents = serial_bfs(g, root)
    indptr = g.row_ptr
    mat = sp.csr_matrix(
        (np.ones(g.n_directed_edges), g.col_idx, indptr), shape=(n, n)
    )
    dist = csgraph.shortest_path(mat, method="D", unweighted=True, indices=root)
    expect = np.where(np.isinf(dist), -1, dist).astype(np.int64)
    np.testing.assert_array_equal(levels, expect)
    assert validate_bfs(g, root, levels, parents) == []
