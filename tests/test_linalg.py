"""Unit tests for the dense linear algebra kernels."""

from __future__ import annotations

import numpy as np
import pytest

from limas import laplacian
from limas.errors import NoConvergence, NotSymmetric, ShapeMismatch
from limas.linalg import (
    RANK_RTOL,
    as_matrix,
    as_square,
    controllability_margin,
    controllability_singular_values,
    determinant,
    eig_general,
    eig_sym,
    has_rank,
    in_completion_basis,
    is_controllable,
)
from conftest import (
    A_SHOWCASE,
    B_SHOWCASE,
    cycle4_graph,
    lift_deviation_basis,
    ones_completion,
    spectral_radius,
)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf]])


def test_as_matrix_shape_enforcement():
    with pytest.raises(ShapeMismatch):
        as_matrix([[1.0, 2.0]], rows=2, cols=1)
    with pytest.raises(ShapeMismatch, match="^K must have 1 columns, got 2$"):
        as_matrix([[1.0, 2.0]], rows=1, cols=1, name="K")
    with pytest.raises(ShapeMismatch, match="^matrix must be 2-D, got 3-D$"):
        as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(ShapeMismatch, match="^M must be square, got 1x2$"):
        as_square([[1.0, 2.0]], name="M")


def test_eig_sym_identity():
    values = eig_sym(np.eye(2))
    assert values.shape == (2,)
    assert np.allclose(values, [1.0, 1.0])


def test_eig_sym_exchange_matrix():
    values = eig_sym([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(values, [-1.0, 1.0], atol=1e-12)


def test_eig_sym_cycle_laplacian():
    values = eig_sym(laplacian(cycle4_graph(0.1)))
    assert np.allclose(values, [0.0, 0.2, 0.2, 0.4], atol=1e-9)


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        eig_sym([[0.0, 1.0], [0.0, 0.0]])


def test_eig_sym_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        M = rng.standard_normal((n, n))
        M = (M + M.T) / 2
        values = eig_sym(M)
        scale = np.linalg.norm(M)
        assert values.shape == (n,)
        assert np.all(np.diff(values) >= 0)
        # the spectrum's first two power sums are trace(M) and ||M||_F^2
        assert abs(values.sum() - np.trace(M)) <= 1e-9 * max(scale, 1e-3)
        assert abs(np.sum(values ** 2) - scale ** 2) <= 1e-9 * max(scale, 1e-3) ** 2
        for lam in values:
            smallest = np.linalg.svd(M - lam * np.eye(n), compute_uv=False)[-1]
            assert smallest <= 1e-9 * max(scale, 1e-3)


@pytest.mark.parametrize("solver, eig", [("eigvalsh", eig_sym), ("eigvals", eig_general)])
def test_eigensolver_failure_is_no_convergence(monkeypatch, solver, eig):
    def failing(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, solver, failing)
    with pytest.raises(NoConvergence, match="^Eigenvalues did not converge$"):
        eig(np.eye(3))


def test_eig_general_triangular():
    values = eig_general(A_SHOWCASE)
    assert np.allclose(sorted(values.real), [1.0, 1.5], atol=1e-12)
    assert np.allclose(values.imag, 0.0, atol=1e-12)


def test_eig_general_scaled_triangular():
    values = eig_general(0.94 * A_SHOWCASE)
    assert np.allclose(sorted(values.real), [0.94, 1.41], atol=1e-12)


def test_eig_general_rotation_conjugate_pair():
    values = eig_general([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(sorted(values.imag), [-1.0, 1.0], atol=1e-12)
    assert np.allclose(values.real, 0.0, atol=1e-12)
    # spectrum of a real matrix is closed under conjugation
    assert np.allclose(sorted(values), sorted(np.conj(values)), atol=1e-12)


def test_spectral_radius_examples():
    assert spectral_radius(0.94 * A_SHOWCASE) == pytest.approx(1.41, abs=1e-12)
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    perm = np.eye(4)[:, [2, 0, 3, 1]]
    assert spectral_radius(perm) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_scaling_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        c = float(rng.uniform(-3.0, 3.0))
        lhs = spectral_radius(c * M)
        rhs = abs(c) * spectral_radius(M)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_determinant_examples():
    assert determinant(A_SHOWCASE) == pytest.approx(1.5, rel=1e-12)
    assert determinant((1 - 0.3 * 0.4) * A_SHOWCASE) == pytest.approx(1.1616, rel=1e-10)
    assert determinant(np.eye(5)) == pytest.approx(1.0, rel=1e-12)


def test_determinant_matches_eigenvalue_product():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        M = rng.standard_normal((n, n))
        det = abs(determinant(M))
        prod = float(np.prod(np.abs(eig_general(M))))
        assert det == pytest.approx(prod, rel=1e-6, abs=1e-12)


def test_is_controllable_examples():
    assert is_controllable(A_SHOWCASE, B_SHOWCASE)
    # zero state matrix with a rank-one input cannot span two states
    assert not is_controllable(np.zeros((2, 2)), B_SHOWCASE)
    assert not is_controllable(A_SHOWCASE, np.zeros((2, 1)))


def test_is_controllable_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        is_controllable(A_SHOWCASE, np.zeros((3, 1)))


def test_has_rank_matches_inline_rule():
    # one rule for single rows and stacks: count(sv > n * sv_max * RANK_RTOL) == n
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 6):
        stack = -np.sort(-rng.uniform(0.1, 10.0, (60, n)), axis=1)
        stack *= 10.0 ** rng.integers(-8, 9, (60, 1))
        edge = n * stack[:, 0] * RANK_RTOL
        stack[0::4, -1] = edge[0::4] * (1.0 - 1e-3)
        stack[1::4, -1] = edge[1::4] * (1.0 + 1e-3)
        stack[2::8, 1:] = 0.0
        expected = [int(np.count_nonzero(row > n * row[0] * RANK_RTOL)) == n
                    for row in stack]
        assert any(expected) and not all(expected)
        assert has_rank(stack, n).tolist() == expected
        assert has_rank(stack.reshape(3, 20, n), n).ravel().tolist() == expected
        for row, want in zip(stack, expected):
            got = has_rank(row, n)
            assert np.ndim(got) == 0 and bool(got) == want


def test_ones_completion_needs_one_column():
    with pytest.raises(ShapeMismatch, match="^completion needs n >= 1$"):
        ones_completion(0)


def test_ones_completion_is_orthogonal():
    for n in (1, 2, 3, 7, 12):
        Q = ones_completion(n)
        assert np.allclose(Q.T @ Q, np.eye(n), atol=1e-12)
        assert np.allclose(Q[:, 0], np.ones(n) / np.sqrt(n), atol=0.0)


def test_ones_completion_is_the_pinned_reflector():
    eps = np.finfo(float).eps
    for n in range(1, 301):
        Q = ones_completion(n)
        assert np.abs(Q.T @ Q - np.eye(n)).max() <= eps * n, n
        assert (Q[:, 0] == 1.0 / np.sqrt(n)).all(), n
        assert ones_completion(n).tobytes() == Q.tobytes(), n
        # the columns after the first are those of I - 2vv'/v'v, v = e_1 + 1/sqrt(n)
        v = np.full(n, 1.0 / np.sqrt(n))
        v[0] += 1.0
        H = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
        assert np.abs(Q[:, 1:] - H[:, 1:]).max(initial=0.0) <= 2 * eps, n


def test_in_completion_basis_matches_the_dense_product():
    # the rank-n update equals psi' M psi but for the sign of the first block
    # row and column, and keeps a symmetric M symmetric to rounding
    rng = np.random.default_rng(71)
    eps = np.finfo(float).eps
    for N, n in ((1, 1), (2, 1), (2, 3), (5, 2), (9, 1), (16, 4), (40, 2)):
        sign = np.ones(N * n)
        sign[:n] = -1.0
        psi = np.kron(ones_completion(N), np.eye(n)) * sign
        for _ in range(3):
            M = rng.uniform(-1.0, 1.0, (N * n, N * n))
            out = in_completion_basis(M, n)
            assert np.abs(out - psi.T @ M @ psi).max() <= 4 * N * n * eps * np.linalg.norm(M, 2)
            S = M + M.T
            out = in_completion_basis(S, n)
            assert np.abs(out - out.T).max() <= 4 * eps * np.linalg.norm(S, 2)


def test_lift_deviation_basis_matches_the_dense_product():
    # the rank-one lift equals [1/sqrt(N), W V] with W = ones_completion(N)[:, 1:],
    # column 0 bit for bit, and keeps an orthogonal V orthogonal
    rng = np.random.default_rng(73)
    eps = np.finfo(float).eps
    for N in (1, 2, 3, 8, 33, 100):
        V = np.linalg.qr(rng.standard_normal((N - 1, N - 1)))[0]
        phi = lift_deviation_basis(V)
        dense = ones_completion(N)
        dense[:, 1:] = dense[:, 1:] @ V
        assert np.array_equal(phi[:, 0], dense[:, 0])
        assert np.abs(phi - dense).max() <= 4 * N * eps, N
        assert np.abs(phi.T @ phi - np.eye(N)).max() <= 4 * N * eps, N


def _symmetric_pairs(seed: int, count: int):
    """Seeded (X, Y): n from 1 to 8, entries uniform in [-10, 10], symmetrized,
    then the edge pairs (0, 0), (X, X), (X, -X) and one 1 x 1 pair."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 9))
        X, Y = rng.uniform(-10.0, 10.0, (2, n, n))
        yield (X + X.T) / 2, (Y + Y.T) / 2
    X = rng.uniform(-10.0, 10.0, (5, 5))
    X = (X + X.T) / 2
    yield np.zeros((5, 5)), np.zeros((5, 5))
    yield X, X
    yield X, -X
    yield np.array([[-7.5]]), np.array([[3.25]])


def test_weyl_eigenvalue_sum_bounds():
    for X, Y in _symmetric_pairs(23, 200):
        ex = eig_sym(X)
        ey = eig_sym(Y)
        es = eig_sym(X + Y)
        assert es[-1] <= ex[-1] + ey[-1] + 1e-9
        assert es[0] >= ex[0] + ey[0] - 1e-9


def test_controllability_singular_values_stack_matches_single():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        stack = rng.standard_normal((7, n, n))
        B = rng.standard_normal((n, 1))
        sv = controllability_singular_values(stack, B)
        assert sv.shape == (7, n)
        for M, row in zip(stack, sv):
            assert np.array_equal(row, controllability_singular_values(M, B))
            assert float(row[-1]) == controllability_margin(M, B)
