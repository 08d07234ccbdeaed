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
    spectral_extremes,
)
from limas.errors import EmptyRange, NotCommuting
from conftest import commuting_graph_pair, cycle4_graph, random_connected_graph


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(1, [])
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


def test_spectral_extremes():
    assert spectral_extremes([0.0, 0.2, 0.2, 0.4]) == (0.2, 0.4)
    assert spectral_extremes([0.0, 4.0, 4.0, 4.0]) == (4.0, 4.0)
    assert spectral_extremes([0.0, 5.0]) == (5.0, 5.0)
    assert spectral_extremes([1.0, 5.0], skip_first=False) == (1.0, 5.0)
    with pytest.raises(EmptyRange):
        spectral_extremes([0.0])


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
