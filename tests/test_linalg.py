"""Unit tests for the dense linear algebra kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limas import laplacian
from limas.errors import DegenerateInput, NotSymmetric, ShapeMismatch
from limas.linalg import (
    RANK_RTOL,
    as_matrix,
    controllability_margin,
    controllability_singular_values,
    determinant,
    eig_general,
    eig_sym,
    gain_kernel,
    has_rank,
    is_controllable,
    ones_completion,
)
from conftest import A_SHOWCASE, B_SHOWCASE, cycle4_graph, spectral_radius


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf]])


def test_as_matrix_shape_enforcement():
    with pytest.raises(ShapeMismatch):
        as_matrix([[1.0, 2.0]], rows=2, cols=1)


def test_eig_sym_identity():
    values, vectors = eig_sym(np.eye(2))
    assert np.allclose(values, [1.0, 1.0])
    assert np.allclose(vectors.T @ vectors, np.eye(2), atol=1e-12)


def test_eig_sym_exchange_matrix():
    values, _ = eig_sym([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(values, [-1.0, 1.0], atol=1e-12)


def test_eig_sym_cycle_laplacian():
    values, _ = eig_sym(laplacian(cycle4_graph(0.1)))
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
        values, vectors = eig_sym(M)
        scale = np.linalg.norm(M)
        assert np.all(np.diff(values) >= 0)
        assert np.linalg.norm(vectors @ np.diag(values) @ vectors.T - M) <= 1e-8 * max(scale, 1e-3)
        assert np.linalg.norm(vectors.T @ vectors - np.eye(n)) <= 1e-9 * np.sqrt(n)
        for lam, v in zip(values, vectors.T):
            assert np.linalg.norm(M @ v - lam * v) <= 1e-9 * max(scale, 1e-3)


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


def test_gain_kernel_examples():
    out = gain_kernel(np.eye(2), B_SHOWCASE, A_SHOWCASE)
    assert np.allclose(out, [[0.0, 1.5]], atol=1e-12)
    out = gain_kernel(np.eye(2), [[1.0], [0.0]], np.eye(2))
    assert np.allclose(out, [[1.0, 0.0]], atol=1e-12)
    assert gain_kernel(2.0, 1.0, 0.7).item() == pytest.approx(0.7, rel=1e-12)


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


def test_gain_kernel_is_free_of_b_scale():
    # B'PB scales with B'B and so does its floor: rescaling B rescales the kernel
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    ref = gain_kernel(P, B_SHOWCASE, A_SHOWCASE)
    for c in (1e-10, 1e-7, 1e7):
        assert np.allclose(c * gain_kernel(P, c * B_SHOWCASE, A_SHOWCASE), ref,
                           rtol=1e-12, atol=0.0)


def test_gain_kernel_degenerate():
    P = np.diag([1.0, 0.0])
    with pytest.raises(DegenerateInput):
        gain_kernel(P, B_SHOWCASE, A_SHOWCASE)


def test_ones_completion_is_orthogonal():
    for n in (1, 2, 3, 7, 12):
        Q = ones_completion(n)
        assert np.allclose(Q.T @ Q, np.eye(n), atol=1e-12)
        assert np.allclose(Q[:, 0], np.ones(n) / np.sqrt(n), atol=0.0)


@st.composite
def symmetric_pair(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    vals = st.floats(min_value=-10.0, max_value=10.0,
                     allow_nan=False, allow_infinity=False)
    X = np.array(draw(st.lists(st.lists(vals, min_size=n, max_size=n),
                               min_size=n, max_size=n)))
    Y = np.array(draw(st.lists(st.lists(vals, min_size=n, max_size=n),
                               min_size=n, max_size=n)))
    return (X + X.T) / 2, (Y + Y.T) / 2


@settings(max_examples=80, deadline=None)
@given(symmetric_pair())
def test_weyl_eigenvalue_sum_bounds(pair):
    X, Y = pair
    ex = eig_sym(X).values
    ey = eig_sym(Y).values
    es = eig_sym(X + Y).values
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
