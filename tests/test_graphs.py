"""Unit tests for graphs, Laplacians and joint diagonalization."""

from __future__ import annotations

import numpy as np
import pytest

from limas import (
    LimasModel,
    SpectralPair,
    WeightedGraph,
    analyze,
    is_connected,
    laplacian,
    modal_radii,
)
from limas.errors import DegenerateSpectrum, NotCommuting
from limas.graphs import OFFDIAG_RTOL, _laplacian_spectrum, commute_check, simultaneous_diagonalize
from conftest import (
    _non_commuting_graphs,
    commuting_graph_pair,
    count_calls,
    cycle4_graph,
    joint_basis,
    laplacian_model,
    ones_completion,
    random_connected_graph,
    random_state_matrix,
)


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
    for bad in ([(0, 1)], [(0, 1, 1.0), (1, 2, 1.0, 0)], [(0, 1, 1.0), 5],
                np.ones((2, 2)), np.ones(3), np.ones((1, 3, 1))):
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
    # also when the array is a transposed view, as model files hand it over
    cols = np.array([[0.0, 1.0], [1.0, 2.0], [1.0, 2.0]])
    g = WeightedGraph(3, cols.T)
    cols[:] = 0.0
    assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))
    empty = WeightedGraph(3, [])
    assert empty.edges == () and empty.i.dtype == np.int64 and empty.w.shape == (0,)
    for rows in (np.array([]), np.empty((0, 3))):
        assert WeightedGraph(3, rows).edges == ()
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


def test_commute_scaled_and_complete():
    Lc = laplacian(cycle4_graph(0.3))
    assert commute_check(laplacian_model(3.0 * Lc, Lc)).holds
    any_graph = random_connected_graph(np.random.default_rng(1), 4)
    assert commute_check(laplacian_model(laplacian(any_graph),
                                         laplacian(WeightedGraph.complete(4, 0.7)))).holds


def test_commute_check_negative():
    path = laplacian(WeightedGraph.path(3))
    star = laplacian(WeightedGraph(3, [(0, 1, 1.0), (0, 2, 3.0)]))
    check = commute_check(laplacian_model(path, star))
    assert not check.holds
    assert check.residual > 1e-3


def test_commute_gate_is_free_of_weight_scale():
    # path and star on 8 nodes: the relative commutator is 0.185 at any common
    # weight, so the gate must fail below unit scale too
    for w in (1.0, 1e-3, 1e-5, 1e-9):
        path = laplacian(WeightedGraph.path(8, w))
        star = laplacian(WeightedGraph(8, [(0, k, w) for k in range(1, 8)]))
        assert not commute_check(laplacian_model(path, star)).holds


def pair_of(Lp, Lc) -> SpectralPair:
    """The internal pairing of a model of these Laplacians, as the model runs it:
    after the commute check."""
    model = laplacian_model(Lp, Lc)
    assert commute_check(model).holds
    return simultaneous_diagonalize(model)


def test_simultaneous_diagonalize_two_nodes():
    Lp = laplacian(WeightedGraph(2, [(0, 1, 0.4)]))
    Lc = laplacian(WeightedGraph(2, [(0, 1, 1.3)]))
    pair = pair_of(Lp, Lc)
    phi = joint_basis(pair, Lp, Lc)
    assert np.allclose(phi[:, 0], [1 / np.sqrt(2)] * 2, atol=0.0)
    assert np.allclose(np.abs(phi[:, 1]), [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert np.allclose(pair.lambda_p, [0.0, 0.8], atol=1e-12)
    assert np.allclose(pair.lambda_c, [0.0, 2.6], atol=1e-12)


def test_simultaneous_diagonalize_showcase_pair():
    pair = pair_of(laplacian(cycle4_graph(0.1)), laplacian(WeightedGraph.complete(4)))
    assert pair.lambda_p[0] == 0.0 and pair.lambda_c[0] == 0.0
    assert np.allclose(sorted(pair.lambda_p[1:]), [0.2, 0.2, 0.4], atol=1e-9)
    assert np.allclose(sorted(pair.lambda_c[1:]), [4.0, 4.0, 4.0], atol=1e-9)


def test_simultaneous_diagonalize_identical_inputs():
    L = laplacian(random_connected_graph(np.random.default_rng(9), 5))
    pair = pair_of(L, L)
    assert np.allclose(pair.lambda_p, pair.lambda_c, atol=1e-10)


def _non_commuting_pairs():
    """Path + star at N 3, 8 and 64, then 100 seeded random non-commuting pairs on 3 to 8 nodes."""
    for N in (3, 8, 64):
        yield WeightedGraph.path(N), _star(N)
    rng = np.random.default_rng(0)
    for _ in range(100):
        yield _non_commuting_graphs(rng, int(rng.integers(3, 9)))


def test_pairing_gate_refuses_non_commuting_laplacians():
    # the pairing checks no commutator: its joint-basis gate refuses these
    # pairs by itself, and the model refuses them before it pairs
    for gp, gc in _non_commuting_pairs():
        model = laplacian_model(laplacian(gp), laplacian(gc))
        assert not commute_check(model).holds
        with pytest.raises(DegenerateSpectrum, match="^off-diagonal residual "):
            simultaneous_diagonalize(model)


def test_joint_pairing_on_random_commuting_pairs():
    rng = np.random.default_rng(17)
    for _ in range(25):
        gp, gc = commuting_graph_pair(rng, int(rng.integers(3, 9)))
        Lp, Lc = laplacian(gp), laplacian(gc)
        pair = pair_of(Lp, Lc)
        N = gp.node_count
        phi = joint_basis(pair, Lp, Lc)
        assert np.allclose(phi.T @ phi, np.eye(N), atol=1e-10)
        assert np.allclose(phi[:, 0], np.ones(N) / np.sqrt(N), atol=0.0)
        for L, lam in ((Lp, pair.lambda_p), (Lc, pair.lambda_c)):
            # each column is a shared eigenvector with its paired eigenvalue
            for i in range(N):
                assert np.linalg.norm(L @ phi[:, i] - lam[i] * phi[:, i]) <= 1e-8
            off = phi.T @ L @ phi - np.diag(lam)
            assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(L)
        assert np.all(pair.lambda_c[1:] > 0.0)


def _circulant(rng, N: int) -> WeightedGraph:
    """Seeded circulant graph: offset 1 and some longer offsets, one weight per offset."""
    offsets = [1] + [d for d in range(2, N // 2 + 1) if rng.random() < 0.3]
    edges = []
    for d in offsets:
        w = float(rng.uniform(0.1, 2.0))
        edges += [(i, (i + d) % N, w) for i in range(N) if d < N - d or i < (i + d) % N]
    return WeightedGraph(N, edges)


def test_paired_spectra_match_eigvalsh_on_commuting_pairs():
    # circulants commute with each other and complete graphs with every graph;
    # each paired list is its Laplacian's spectrum within 64 eps ||L||_2
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    makers = (_circulant,
              lambda rng, N: WeightedGraph.complete(N, float(rng.uniform(0.1, 3.0))),
              lambda rng, N: WeightedGraph.cycle(N, float(rng.uniform(0.1, 3.0))))
    for N in (3, 4, 5, 8, 13, 31, 64, 100, 256):
        for _ in range(2 if N > 64 else 4):
            gp, gc = (makers[int(rng.integers(0, 3))](rng, N) for _ in range(2))
            Lp, Lc = laplacian(gp), laplacian(gc)
            pair = pair_of(Lp, Lc)
            for L, lam in ((Lp, pair.lambda_p), (Lc, pair.lambda_c)):
                assert lam[0] == 0.0
                spectrum = np.linalg.eigvalsh(L)
                assert np.abs(np.sort(lam) - spectrum).max() <= 64 * eps * spectrum[-1], N


def test_model_owns_its_commute_check():
    # the model's cached check is the one commutator check; a failed one
    # refuses the joint spectrum with its residual
    commuting = LimasModel([[1.1]], [[1.0]], cycle4_graph(0.1), WeightedGraph.complete(4),
                           alpha=0.3)
    assert commuting.commute_check == commute_check(commuting)
    assert commuting.commute_check.holds
    for gp, gc in _non_commuting_pairs():
        model = LimasModel([[1.1]], [[1.0]], gp, gc, alpha=0.3)
        check = model.commute_check
        assert check == commute_check(model)
        with pytest.raises(NotCommuting) as err:
            model.joint_spectrum
        assert str(err.value) == f"Laplacians do not commute (residual {check.residual:g})"


def _assert_joint_basis(pair, Lp, Lc, exact: bool = True):
    # the joint basis is orthogonal, its column 0 exactly 1/sqrt(N), and it
    # passes the gate for both Laplacians; for an exact joint eigenbasis each
    # paired list is its Laplacian's spectrum within 64 eps ||L||_2
    N = Lp.shape[0]
    eps = np.finfo(float).eps
    phi = joint_basis(pair, Lp, Lc)
    assert np.abs(phi.T @ phi - np.eye(N)).max() <= 64 * eps * N
    assert np.array_equal(phi[:, 0], np.full(N, 1.0 / np.sqrt(N)))
    for L, lam in ((Lp, pair.lambda_p), (Lc, pair.lambda_c)):
        assert lam[0] == 0.0
        residual = np.linalg.norm(L @ phi - phi * lam)
        assert residual <= OFFDIAG_RTOL * np.linalg.norm(L), N
        if exact:
            spectrum = np.linalg.eigvalsh(L)
            assert np.abs(np.sort(lam) - spectrum).max() <= 64 * eps * spectrum[-1], N


def test_complete_communication_graph_takes_one_eigensolve(monkeypatch):
    # a complete communication graph is scalar on the deviations: every basis
    # diagonalizes it, so the physical Laplacian's sorted eigenvalues, which
    # the pairing is given and reuses, are the only solve, and no eigenvector
    # is formed
    rng = np.random.default_rng(41)
    makers = (_circulant,
              lambda rng, N: WeightedGraph.cycle(N, float(rng.uniform(0.1, 3.0))),
              lambda rng, N: WeightedGraph.path(N, float(rng.uniform(0.1, 3.0))))
    vectors, values = count_calls(monkeypatch, "eigh"), count_calls(monkeypatch, "eigvalsh")
    for N in (3, 8, 64, 256):
        Lc = laplacian(WeightedGraph.complete(N, float(rng.uniform(0.1, 3.0))))
        for make in makers:
            Lp = laplacian(make(rng, N))
            vectors.clear()
            values.clear()
            pair = pair_of(Lp, Lc)
            assert (len(vectors), len(values)) == (0, 1), N
            assert np.array_equal(pair.lambda_p, _laplacian_spectrum(Lp))
            _assert_joint_basis(pair, Lp, Lc)


@pytest.mark.parametrize("delta, refused", [(2e-8, False), (5e-8, True), (1e-7, True)])
def test_gate_refuses_a_split_that_leaves_the_physical_laplacian_coupled(delta, refused):
    # in the deviation basis W, Lc is diag(1, 1 + delta, 2, 3) and Lp is
    # diag(1, 1, 2.5, 4) with 1e-2 at (0, 1) and (1, 0); they commute to
    # sqrt(2) 1e-2 delta, well inside the commutator gate. Within
    # OFFDIAG_RTOL ||Lc||_F = 3.9e-8 the eigenvalues 1 and 1 + delta form one
    # cluster, in which Lp is diagonalized; beyond it the communication
    # eigenvectors stay, and Lp's residual is its off-diagonal sqrt(2) 1e-2
    W = ones_completion(5)[:, 1:]
    R = np.diag([1.0, 1.0, 2.5, 4.0])
    R[0, 1] = R[1, 0] = 1e-2
    Lp, Lc = W @ R @ W.T, W @ np.diag([1.0, 1.0 + delta, 2.0, 3.0]) @ W.T
    assert commute_check(laplacian_model(Lp, Lc)).holds
    if refused:
        with pytest.raises(DegenerateSpectrum, match=r"^off-diagonal residual 0\.0141421 "
                                                     r"too large for the physical Laplacian$"):
            pair_of(Lp, Lc)
    else:
        pair = pair_of(Lp, Lc)
        assert np.allclose(np.sort(pair.lambda_p), [0.0, 0.99, 1.01, 2.5, 4.0], atol=1e-12)
        assert np.allclose(np.sort(pair.lambda_c), [0.0, 1.0, 1.0, 2.0, 3.0], atol=1e-7)
        _assert_joint_basis(pair, Lp, Lc, exact=False)


def _kron_sum(La, Lb):
    """Laplacian of the Cartesian product of two graphs, from their Laplacians."""
    return np.kron(La, np.eye(len(Lb))) + np.kron(np.eye(len(La)), Lb)


def test_clusters_of_several_sizes_rotate_in_one_call(monkeypatch):
    # K3 x C5 has the communication eigenvalues 3, 2 - 2cos(2pi/5) and
    # 2 - 2cos(4pi/5) twice each and their sums with 3 four times each: three
    # clusters of size 2 and two of size 4, which the physical P3 x C5 splits.
    # K4,4, the circulant on 8 nodes with offsets 1 and 3, has 4 six times.
    # The clusters of one size share one batched eigensolve after the
    # communication Laplacian's own
    k3 = laplacian(WeightedGraph.complete(3))
    p3 = laplacian(WeightedGraph.path(3, 0.4))
    c5, c5_p = (laplacian(WeightedGraph.cycle(5, w)) for w in (1.0, 0.3))
    bipartite = WeightedGraph(8, [(i, (i + d) % 8, 1.0) for i in range(8) for d in (1, 3)
                                  if i < (i + d) % 8 or (i + d) % 8 < i - 4])
    cases = ((_kron_sum(p3, c5_p), _kron_sum(k3, c5), 1 + 2),
             (laplacian(WeightedGraph.cycle(8, 0.2)), laplacian(bipartite), 1 + 1))
    calls = count_calls(monkeypatch)
    for Lp, Lc, eigensolves in cases:
        assert commute_check(laplacian_model(Lp, Lc)).holds
        calls.clear()
        pair = pair_of(Lp, Lc)
        assert len(calls) == eigensolves
        _assert_joint_basis(pair, Lp, Lc)


def _just_scalar(N: int, bump: WeightedGraph, ratio: float) -> np.ndarray:
    """Unit complete Laplacian plus ``bump``'s, scaled so that ||Lc_red - c I||_F
    is ``ratio`` times the scalar test's bound OFFDIAG_RTOL ||Lc||_F (to first order)."""
    base = laplacian(WeightedGraph.complete(N))
    L = laplacian(bump)
    W = ones_completion(N)[:, 1:]
    reduced = W.T @ L @ W
    spread = np.linalg.norm(reduced - np.trace(reduced) / (N - 1) * np.eye(N - 1))
    return base + ratio * OFFDIAG_RTOL * np.linalg.norm(base) / spread * L


def _star(N: int, weight: float = 1.0) -> WeightedGraph:
    return WeightedGraph(N, [(0, k, weight) for k in range(1, N)])


def test_scalar_test_either_side_gives_a_certified_pair(monkeypatch):
    # a complete graph plus a small star: ||Lc_red - c I||_F is just inside or
    # just outside OFFDIAG_RTOL ||Lc||_F; inside, no solve, as the pair reuses
    # the physical spectrum it is given; outside, the communication
    # Laplacian's own eigensolve, and no rotation, since Lp complete is scalar
    # on every cluster. Lp commutes with both, and both pairs pass the gate
    N = 16
    Lp = laplacian(WeightedGraph.complete(N, 0.7))
    spectrum = _laplacian_spectrum(Lp)
    vectors, values = count_calls(monkeypatch, "eigh"), count_calls(monkeypatch, "eigvalsh")
    for ratio, solves in ((0.9, (0, 0)), (1.1, (1, 0))):
        Lc = _just_scalar(N, _star(N), ratio)
        model = laplacian_model(Lp, Lc)
        assert commute_check(model).holds
        # the physical spectrum, solved before the count
        assert np.array_equal(model.spectrum_p, spectrum)
        vectors.clear()
        values.clear()
        pair = simultaneous_diagonalize(model)
        assert (len(vectors), len(values)) == solves, ratio
        _assert_joint_basis(pair, Lp, Lc, exact=False)


@pytest.mark.parametrize("N", [16, 40])
def test_cluster_on_which_the_physical_laplacian_is_scalar_keeps_its_basis(N, monkeypatch):
    # a complete graph plus a small cycle, just outside the scalar test: the
    # communication eigenvalues chain into one cluster though they differ by
    # more than rounding. Lp complete is scalar there, so the cluster keeps the
    # communication eigenvectors; a rotation by the rounding noise of its
    # projection would mix them and fail the gate for Lc
    Lp = laplacian(WeightedGraph.complete(N, 0.7))
    calls = count_calls(monkeypatch)
    for ratio in (1.1, 1.2, 1.3, 1.5, 3.0, 10.0):
        Lc = _just_scalar(N, WeightedGraph.cycle(N), ratio)
        calls.clear()
        pair = pair_of(Lp, Lc)
        assert len(calls) == 1, ratio
        _assert_joint_basis(pair, Lp, Lc)


def test_pair_arrays_are_read_only_copies():
    # both branches hand out frozen arrays, and a pair built by hand copies
    # its inputs instead of freezing the caller's
    Lp = laplacian(cycle4_graph(0.1))
    for gc in (WeightedGraph.complete(4), cycle4_graph(1.0)):
        pair = pair_of(Lp, laplacian(gc))
        for arr in (pair.lambda_p, pair.lambda_c):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
    mine = np.array([0.0, 1.0, 2.0])
    pair = SpectralPair(mine, [0.0, 3.0, 3.0])
    assert mine.flags.writeable and not pair.lambda_p.flags.writeable
    assert not np.shares_memory(mine, pair.lambda_p)
    assert pair.lambda_c.dtype == float and not pair.lambda_c.flags.writeable


def test_pairs_compare_and_hash_by_identity():
    # the arrays of a pair have no truth value, so two pairs of the same
    # Laplacians are distinct objects rather than an error to compare
    Lp, Lc = laplacian(cycle4_graph(0.1)), laplacian(cycle4_graph(1.0))
    first, second = pair_of(Lp, Lc), pair_of(Lp, Lc)
    assert first == first and first != second
    assert len({first, first, second}) == 2


def _scalar_branch_models(rng):
    """Seeded (model, just_inside) whose communication graph passes the scalar test.

    A complete graph of random weight under a random physical graph, and
    (``just_inside``) a complete graph plus a star just inside the test under
    a physical complete-plus-star graph, which commutes with it.
    """
    for N in (3, 5, 8, 17, 33, 64):
        for just_inside in (False, True):
            if just_inside:
                w, v = (float(x) for x in rng.uniform(0.1, 2.0, 2))
                gp = WeightedGraph(N, [(i, j, w + (v if i == 0 else 0.0))
                                       for i in range(N) for j in range(i + 1, N)])
                Lc = _just_scalar(N, _star(N), float(rng.uniform(0.5, 0.95)))
                gc = WeightedGraph(N, [(i, j, -Lc[i, j])
                                       for i in range(N) for j in range(i + 1, N)])
            else:
                gp = random_connected_graph(rng, N)
                gc = WeightedGraph.complete(N, float(rng.uniform(0.1, 3.0)))
            n = int(rng.integers(1, 4))
            B = rng.uniform(-1.0, 1.0, (n, 1)) + 0.2
            alpha = float(rng.uniform(-0.5, 0.5)) / float(laplacian(gp).diagonal().max())
            yield LimasModel(random_state_matrix(rng, n, 0.3, 1.2), B, gp, gc, alpha=alpha), \
                just_inside


def _radius_shift_bound(model, pairs, K) -> np.ndarray:
    """Bauer-Fike bound on how far each modal radius moves between two pairs.

    The mode matrices of the two pairs differ by (lc - lc') BK; an eigenvalue
    of one lies within cond(X) ||(lc - lc') BK||_2 of one of the other, with X
    the eigenvectors of the other, so each radius moves by at most the larger
    condition number of the two times that norm.
    """
    modes = [model.A - spec.lambda_p[1:, None, None] * model.Ap
             + spec.lambda_c[1:, None, None] * (model.B @ K) for spec in pairs]
    cond = np.maximum(*(np.linalg.cond(np.linalg.eig(M)[1]) for M in modes))
    shift = np.abs(pairs[0].lambda_c - pairs[1].lambda_c)[1:]
    return cond * shift * np.linalg.norm(model.B @ K, 2)


def test_scalar_branch_matches_an_eigh_reference_pair():
    # the pair without eigenvectors against the pair the scalar branch used to
    # form: the lifted eigh basis of the reduced Lp and the Rayleigh quotients
    # of both Laplacians over it. The gate holds by construction, since the
    # scalar test bounds its residual with the same constant. With a complete graph the
    # radii of the synthesized gain agree to 1e-12; just inside the test the
    # pair's lambda_c is the mean of quotients that spread up to
    # OFFDIAG_RTOL ||Lc||_F, and the radii move within the Bauer-Fike bound of that
    eps = np.finfo(float).eps
    rng = np.random.default_rng(53)
    synthesized = 0
    for model, just_inside in _scalar_branch_models(rng):
        Lp, Lc = model.laplacian_p, model.laplacian_c
        pair = model.joint_spectrum
        phi = joint_basis(pair, Lp, Lc)
        quotients = [np.einsum("ij,ij->j", phi, L @ phi) for L in (Lp, Lc)]
        for q in quotients:
            q[0] = 0.0
        reference = SpectralPair(*quotients)
        spectrum = np.linalg.eigvalsh(Lp)
        assert np.abs(np.sort(pair.lambda_p) - spectrum).max() <= 64 * eps * spectrum[-1]
        assert np.abs(pair.lambda_c - reference.lambda_c).max() \
            <= OFFDIAG_RTOL * np.linalg.norm(Lc)
        for L, lam in ((Lp, pair.lambda_p), (Lc, pair.lambda_c)):
            assert np.linalg.norm(L @ phi - phi * lam) <= OFFDIAG_RTOL * np.linalg.norm(L)
        report = analyze(model)
        if report.gain_source != "riccati":
            assert not report.sufficient.holds
            continue
        K = np.array([report.gain])
        synthesized += 1
        reference_radii = np.abs(np.linalg.eigvals(
            model.A - reference.lambda_p[1:, None, None] * model.Ap
            + reference.lambda_c[1:, None, None] * (model.B @ K))).max(axis=1)
        moved = np.abs(modal_radii(model, K) - reference_radii)
        if just_inside:
            assert (moved <= 1e-12 + _radius_shift_bound(model, (pair, reference), K)).all()
        else:
            assert moved.max() <= 1e-12
    assert synthesized >= 8


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
        g = WeightedGraph(N, edges)
        ref = _loop_edges(N, edges)
        assert g.edges == ref
        assert [tuple(map(type, e)) for e in g.edges] == [tuple(map(type, e)) for e in ref]
        # the same triples as one (E, 3) float64 array give the same arrays
        from_rows = WeightedGraph(N, np.array(edges, dtype=float))
        for name in ("i", "j", "w"):
            assert np.array_equal(getattr(from_rows, name), getattr(g, name))
            assert getattr(from_rows, name).dtype == getattr(g, name).dtype

        k = int(rng.integers(len(edges)))
        i, j, w = edges[k]
        replaced = [(i, i, w), (i, N, w), (-1, j, w), (i, j, 0.0), (i, j, -w),
                    (i, j, np.nan), (i, j, np.inf), (i, j, -np.inf),
                    (i, 2.0**63, w), (-2.0**63, j, w), (np.nan, j, w)]
        trials = [edges[:k] + [bad] + edges[k + 1:] for bad in replaced]
        p = int(rng.integers(len(edges) + 1))
        trials += [edges[:p] + [dup] + edges[p:] for dup in ((i, j, 1.0), (j, i, 2))]
        for trial in trials:
            with pytest.raises(ValueError):
                _loop_edges(N, trial)
            with pytest.raises(ValueError) as from_list:
                WeightedGraph(N, trial)
            with pytest.raises(ValueError) as from_array:
                WeightedGraph(N, np.array(trial, dtype=float))
            assert str(from_array.value) == str(from_list.value)
