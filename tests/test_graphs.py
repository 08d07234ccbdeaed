"""Unit tests for graphs, Laplacians and joint diagonalization."""

from __future__ import annotations

import numpy as np
import pytest

from limas import (
    WeightedGraph,
    commute_check,
    is_connected,
    laplacian,
    simultaneous_diagonalize,
)
from limas.errors import NotCommuting, ShapeMismatch
from conftest import commuting_graph_pair, cycle4_graph, random_connected_graph


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(1, [])
    with pytest.raises(ValueError, match="more than"):
        WeightedGraph(10**400, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, -0.5)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 3, 1.0)])
    g = WeightedGraph(3, [(2, 0, 0.5)])
    assert g.edges == ((0, 2, 0.5),)
    # non-integral, non-finite and beyond-float indices are rejected, not truncated
    for bad in (1.7, np.inf, -np.inf, np.nan, 10**400):
        with pytest.raises(ValueError, match="edge 0"):
            WeightedGraph(3, [(0, bad, 1.0)])
    with pytest.raises(ValueError, match="edge 1 weight"):
        WeightedGraph(3, [(0, 1, 1.0), (1, 2, 10**400)])
    for bad in ([(0, 1)], [(0, 1, 1.0), (1, 2, 1.0, 0)], [(0, 1, 1.0), 5]):
        with pytest.raises(ValueError, match=r"\(i, j, weight\) triples"):
            WeightedGraph(3, bad)
    with pytest.raises(ValueError, match="cycle needs at least 3 nodes"):
        WeightedGraph.cycle(2)
    # a fractional node count would admit an end at node 3 of a 3.5-node graph
    with pytest.raises(ValueError, match="node count must be an integer"):
        WeightedGraph(3.5, [(0, 3, 1.0), (0, 1, 1.0), (1, 2, 1.0)])
    for bad in (3.0, True, "3", None):
        with pytest.raises(ValueError, match="node count must be an integer"):
            WeightedGraph(bad, [(0, 1, 1.0)])
    assert WeightedGraph(np.int64(3), [(0, 1, 1.0)]).node_count == 3
    assert type(WeightedGraph(np.int32(3), []).node_count) is int


def test_edge_arrays_are_read_only_and_owned():
    edges = [(2, 0, 0.5), (1, 2, 3)]
    g = WeightedGraph(3, edges)
    assert (g.i.dtype, g.j.dtype, g.w.dtype) == (np.int64, np.int64, np.float64)
    assert (g.i.tolist(), g.j.tolist(), g.w.tolist()) == ([0, 1], [2, 2], [0.5, 3.0])
    for arr in (g.i, g.j, g.w):
        with pytest.raises(ValueError):
            arr[0] = 1
    with pytest.raises(AttributeError):
        g.edges = ()
    # the graph keeps its own copy of the caller's list or array
    edges[0] = (0, 1, 9.0)
    edges.append((0, 1, 1.0))
    assert g.edges == ((0, 2, 0.5), (1, 2, 3.0))
    rows = np.array([[0.0, 1.0, 1.0], [1.0, 2.0, 2.0]])
    g = WeightedGraph(3, rows)
    rows[:] = 0.0
    assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))
    empty = WeightedGraph(3, [])
    assert empty.edges == () and empty.i.dtype == np.int64 and empty.w.shape == (0,)
    # graphs compare and hash by identity
    assert g == g and g != WeightedGraph(3, g.edges)
    assert len({g, g}) == 1


def test_laplacian_two_nodes():
    L = laplacian(WeightedGraph(2, [(0, 1, 0.7)]))
    assert np.array_equal(L, [[0.7, -0.7], [-0.7, 0.7]])


def test_laplacian_cycle_spectrum():
    L = laplacian(cycle4_graph(0.1))
    assert np.allclose(np.linalg.eigvalsh(L), [0.0, 0.2, 0.2, 0.4], atol=1e-9)


def test_laplacian_complete_spectrum():
    L = laplacian(WeightedGraph.complete(4))
    assert np.allclose(np.linalg.eigvalsh(L), [0.0, 4.0, 4.0, 4.0], atol=1e-9)


def test_laplacian_rows_sum_to_zero_and_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 10)))
        L = laplacian(g)
        assert np.array_equal(L, L.T)
        assert np.max(np.abs(L @ np.ones(g.node_count))) <= 1e-14 * max(np.abs(L).max(), 1.0)


def test_is_connected():
    assert is_connected(cycle4_graph())
    assert not is_connected(WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]))
    assert is_connected(WeightedGraph(2, [(0, 1, 0.1)]))


def test_connectivity_matches_second_eigenvalue():
    rng = np.random.default_rng(5)
    for _ in range(40):
        N = int(rng.integers(2, 13))
        # random subset of edges, connected or not
        edges = [(i, j, float(rng.uniform(0.1, 1.0)))
                 for i in range(N) for j in range(i + 1, N)
                 if rng.random() < 0.25]
        if not edges:
            continue
        g = WeightedGraph(N, edges)
        lam2 = np.linalg.eigvalsh(laplacian(g))[1]
        assert is_connected(g) == (lam2 > 1e-10)


def _connected_reference(N, edges):
    """Union-find over every edge, without stopping early."""
    parent = list(range(N))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j, _ in edges:
        parent[find(i)] = find(j)
    return len({find(a) for a in range(N)}) == 1


def test_is_connected_matches_full_union_find():
    rng = np.random.default_rng(23)
    seen = set()
    for trial in range(210):
        N = int(rng.integers(2, 65))
        form = trial % 3
        if form == 0:
            # random subset of the pairs, from empty to dense
            p = float(rng.uniform(0.0, 0.4))
            edges = [(i, j, 1.0) for i in range(N) for j in range(i + 1, N) if rng.random() < p]
        else:
            # two complete parts on shuffled nodes: disconnected with many edges,
            # or (form 2) joined by one bridge listed last
            nodes = rng.permutation(N).tolist()
            cut = int(rng.integers(1, N))
            parts = nodes[:cut], nodes[cut:]
            edges = [(a, b, 1.0) for part in parts
                     for x, a in enumerate(part) for b in part[x + 1:]]
            edges = [edges[k] for k in rng.permutation(len(edges))]
            if form == 2:
                edges.append((parts[1][0], parts[0][0], 1.0))
        expected = _connected_reference(N, edges)
        assert is_connected(WeightedGraph(N, edges)) == expected
        seen.add((form, expected))
    assert seen == {(0, False), (0, True), (1, False), (2, True)}


def test_commute_check_rejects_size_mismatch():
    with pytest.raises(ShapeMismatch, match=r"^Laplacians differ in size: \(2, 2\) vs \(3, 3\)$"):
        commute_check(np.zeros((2, 2)), np.zeros((3, 3)))


def test_commute_scaled_and_complete():
    Lc = laplacian(cycle4_graph(0.3))
    assert commute_check(3.0 * Lc, Lc).ok
    any_graph = random_connected_graph(np.random.default_rng(1), 4)
    assert commute_check(laplacian(any_graph),
                         laplacian(WeightedGraph.complete(4, 0.7))).ok


def test_commute_check_negative():
    path = laplacian(WeightedGraph.path(3))
    star = laplacian(WeightedGraph(3, [(0, 1, 1.0), (0, 2, 3.0)]))
    ok, residual = commute_check(path, star)
    assert not ok
    assert residual > 1e-3


def test_commute_gate_is_free_of_weight_scale():
    # path and star on 8 nodes: the relative commutator is 0.185 at any common
    # weight, so the gate must fail below unit scale too
    for w in (1.0, 1e-3, 1e-5, 1e-9):
        path = laplacian(WeightedGraph.path(8, w))
        star = laplacian(WeightedGraph(8, [(0, k, w) for k in range(1, 8)]))
        assert not commute_check(path, star).ok


def test_simultaneous_diagonalize_two_nodes():
    Lp = laplacian(WeightedGraph(2, [(0, 1, 0.4)]))
    Lc = laplacian(WeightedGraph(2, [(0, 1, 1.3)]))
    pair = simultaneous_diagonalize(Lp, Lc)
    assert np.allclose(pair.phi[:, 0], [1 / np.sqrt(2)] * 2, atol=0.0)
    assert np.allclose(np.abs(pair.phi[:, 1]), [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert np.allclose(pair.lambda_p, [0.0, 0.8], atol=1e-12)
    assert np.allclose(pair.lambda_c, [0.0, 2.6], atol=1e-12)


def test_simultaneous_diagonalize_showcase_pair():
    pair = simultaneous_diagonalize(laplacian(cycle4_graph(0.1)),
                                    laplacian(WeightedGraph.complete(4)))
    assert pair.lambda_p[0] == 0.0 and pair.lambda_c[0] == 0.0
    assert np.allclose(sorted(pair.lambda_p[1:]), [0.2, 0.2, 0.4], atol=1e-9)
    assert np.allclose(sorted(pair.lambda_c[1:]), [4.0, 4.0, 4.0], atol=1e-9)


def test_simultaneous_diagonalize_identical_inputs():
    L = laplacian(random_connected_graph(np.random.default_rng(9), 5))
    pair = simultaneous_diagonalize(L, L)
    assert np.allclose(pair.lambda_p, pair.lambda_c, atol=1e-10)


def test_simultaneous_diagonalize_rejects_non_commuting():
    path = laplacian(WeightedGraph.path(3))
    star = laplacian(WeightedGraph(3, [(0, 1, 1.0), (0, 2, 3.0)]))
    with pytest.raises(NotCommuting):
        simultaneous_diagonalize(path, star)


def test_joint_pairing_on_random_commuting_pairs():
    rng = np.random.default_rng(17)
    for _ in range(25):
        gp, gc = commuting_graph_pair(rng, int(rng.integers(3, 9)))
        Lp, Lc = laplacian(gp), laplacian(gc)
        pair = simultaneous_diagonalize(Lp, Lc)
        N = gp.node_count
        assert np.allclose(pair.phi.T @ pair.phi, np.eye(N), atol=1e-10)
        assert np.allclose(pair.phi[:, 0], np.ones(N) / np.sqrt(N), atol=0.0)
        for L, lam in ((Lp, pair.lambda_p), (Lc, pair.lambda_c)):
            # each column is a shared eigenvector with its paired eigenvalue
            for i in range(N):
                assert np.linalg.norm(L @ pair.phi[:, i] - lam[i] * pair.phi[:, i]) <= 1e-8
            off = pair.phi.T @ L @ pair.phi - np.diag(lam)
            assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(L)
        assert np.all(pair.lambda_c[1:] > 0.0)


def test_laplacian_matches_edge_loop_bitwise():
    # diagonal sums accumulate in edge order, exactly as an explicit loop
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 12)))
        ref = np.zeros((g.node_count, g.node_count))
        for i, j, w in g.edges:
            ref[i, j] -= w
            ref[j, i] -= w
            ref[i, i] += w
            ref[j, j] += w
        assert laplacian(g).tobytes() == ref.tobytes()
    assert np.array_equal(laplacian(WeightedGraph(3, [])), np.zeros((3, 3)))


def _loop_edges(node_count, edges):
    """The per-edge validation loop the array validator replaced, kept as reference."""
    normalized = []
    seen = set()
    for i, j, w in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop on node {i}")
        if i > j:
            i, j = j, i
        if not (0 <= i < j < node_count):
            raise ValueError(f"edge ({i}, {j}) outside node range 0..{node_count - 1}")
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        w = float(w)
        if not (w > 0.0) or not np.isfinite(w):
            raise ValueError(f"edge ({i}, {j}) weight must be finite and > 0, got {w}")
        seen.add((i, j))
        normalized.append((i, j, w))
    return tuple(normalized)


def _random_edge_list(rng, N):
    """Distinct pairs in random order, some reversed, with int/float ends and weights."""
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    edges = []
    for idx in rng.permutation(len(pairs))[:int(rng.integers(1, len(pairs) + 1))]:
        i, j = pairs[idx]
        if rng.random() < 0.5:
            i, j = j, i
        if rng.random() < 0.3:
            i, j = float(i), np.int64(j)
        w = int(rng.integers(1, 5)) if rng.random() < 0.3 else float(rng.uniform(0.01, 3.0))
        edges.append((i, j, w))
    return edges


def test_edge_validator_matches_loop_reference():
    rng = np.random.default_rng(11)
    for _ in range(60):
        N = int(rng.integers(3, 12))
        edges = _random_edge_list(rng, N)
        got = WeightedGraph(N, edges).edges
        ref = _loop_edges(N, edges)
        assert got == ref
        assert [tuple(map(type, e)) for e in got] == [tuple(map(type, e)) for e in ref]

        k = int(rng.integers(len(edges)))
        i, j, w = edges[k]
        replaced = [(i, i, w), (i, N, w), (-1, j, w), (i, j, 0.0), (i, j, -w),
                    (i, j, np.nan), (i, j, np.inf), (i, j, -np.inf)]
        trials = [edges[:k] + [bad] + edges[k + 1:] for bad in replaced]
        p = int(rng.integers(len(edges) + 1))
        trials += [edges[:p] + [dup] + edges[p:] for dup in ((i, j, 1.0), (j, i, 2))]
        for trial in trials:
            for build in (WeightedGraph, _loop_edges):
                with pytest.raises(ValueError):
                    build(N, trial)
