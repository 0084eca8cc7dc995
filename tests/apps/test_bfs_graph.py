"""Unit + property tests for the BFS substrate (RMAT, CSR, serial BFS)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bfs import CSRGraph, rmat_edges, serial_bfs, traversed_edges, validate_bfs


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
