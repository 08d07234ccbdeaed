"""Dense real linear algebra kernels used throughout the toolkit.

Everything operates on plain float64 numpy arrays. Agent dimensions stay
small (n <= ~10), stacked ones reach N*n ~ 1000, and per-mode quantities
run on stacks of n x n matrices; the routines favor accuracy and
determinism: symmetric spectra go through ``eigvalsh``, general spectra
through ``eigvals``. Controllability has one owner:
:func:`controllability` builds the Krylov matrix of one matrix or of a stack
and takes its singular values, and :func:`has_rank` judges their rank.
Eigenvectors are solved only in the joint diagonalization of
:mod:`limas.graphs`. The basis of the deviations from consensus is one
Householder reflector, never formed: :func:`in_completion_basis` applies it
to a matrix from both sides as a rank-n update.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence, ShapeMismatch

# Controllability rank threshold is n * sigma_max * RANK_RTOL.
RANK_RTOL = 1e-12


def as_matrix(obj, rows: int | None = None, cols: int | None = None,
              name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array, optionally enforcing its shape.

    Scalars become 1x1 and 1-D sequences become a single row. Non-finite
    entries are rejected so NaN/Inf never enter downstream computations.
    """
    M = np.atleast_2d(np.asarray(obj, dtype=float))
    if M.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got {M.ndim}-D")
    if rows is not None and M.shape[0] != rows:
        raise ShapeMismatch(f"{name} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise ShapeMismatch(f"{name} must have {cols} columns, got {M.shape[1]}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def as_square(obj, name: str = "matrix") -> np.ndarray:
    M = as_matrix(obj, name=name)
    if M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got {M.shape[0]}x{M.shape[1]}")
    return M


def eig_sym(M) -> np.ndarray:
    """Ascending eigenvalues of a symmetric M, as every Laplacian
    :func:`limas.graphs.laplacian` builds is; eigvalsh reads one triangle."""
    M = as_square(M)
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def eig_general(M) -> np.ndarray:
    """All eigenvalues of a square matrix as an unordered complex array.

    A stack of shape (..., m, m) yields one row of eigenvalues per matrix.
    Real inputs yield spectra closed under conjugation.
    """
    M = as_square(M) if np.ndim(M) < 3 else np.asarray(M, dtype=float)
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def determinant(M) -> float:
    """Determinant via LU factorization; singular inputs simply return 0."""
    return float(np.linalg.det(as_square(M)))


def controllability(M, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Krylov matrix C = [B, MB, ..., M^(n-1)B] and its descending singular values.

    ``M`` is one n x n matrix, or a stack (..., n, n) that gives one C and one
    row of singular values per matrix; :func:`has_rank` judges them. ``B`` is
    a float array of n rows that the caller validated, as :func:`as_matrix`
    does; it is not validated again here.
    """
    M = np.asarray(M, dtype=float)
    blocks = [np.broadcast_to(B, M.shape[:-2] + B.shape)]
    for _ in range(M.shape[-1] - 1):
        blocks.append(M @ blocks[-1])
    C = np.concatenate(blocks, axis=-1)
    try:
        return C, np.linalg.svd(C, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def has_rank(sv: np.ndarray, n: int) -> np.bool_ | np.ndarray:
    """Do the descending singular values ``sv`` show rank ``n``?

    A singular value counts when it exceeds ``n * sigma_max * RANK_RTOL``.
    ``sv`` is one row (the result is a bool) or a stack of rows, as
    :func:`controllability` returns them (one bool per row).
    """
    return np.count_nonzero(sv > n * sv[..., :1] * RANK_RTOL, axis=-1) == n


def is_controllable(M, B) -> bool:
    """Kalman rank test: [B, MB, ..., M^(n-1)B] must have full row rank."""
    M = as_square(M, name="M")
    return bool(has_rank(controllability(M, as_matrix(B, rows=len(M), name="B"))[1], len(M)))


def controllability_margin(M, B) -> float:
    """Smallest singular value of the controllability matrix, whatever the rank.

    For an uncontrollable pair it is small but rarely exactly 0;
    :func:`has_rank` decides the rank.
    """
    M = as_square(M, name="M")
    return float(controllability(M, as_matrix(B, rows=len(M), name="B"))[1][-1])


def _reflector(n: int) -> tuple[np.ndarray, float]:
    """The Householder reflector H = I - beta vv' that maps e_1 to -1/sqrt(n) 1.

    Returns v = e_1 + 1/sqrt(n) 1 and beta = 2/v'v = 1/(1 + 1/sqrt(n)). With
    this sign v_1 = 1 + 1/sqrt(n) is a sum of two positive numbers and loses
    no digits to cancellation. The first column of H is -1/sqrt(n) 1, and the
    others, orthonormal and orthogonal to 1, span the deviations from
    consensus.
    """
    s = 1.0 / math.sqrt(n)
    v = np.full(n, s)
    v[0] += 1.0
    return v, 1.0 / (1.0 + s)


def in_completion_basis(M, n: int = 1) -> np.ndarray:
    """H' M H for H = (I - beta vv') (x) I_n, the reflector of :func:`_reflector`.

    ``M`` is a square matrix of N x N blocks of size n. Its first block row
    and column are those of the consensus direction -1/sqrt(N) 1 (x) I_n, and
    the deviation block [n:, n:] is ``M`` in the deviation columns of H. With
    V = v (x) I_n it is the two-sided rank-n update M - V X - Y V',
    O((Nn)^2 n) instead of the O((Nn)^3) of two products with H. The term
    of V'MV is split evenly between X and Y, which keeps a symmetric M
    symmetric to rounding. The update runs on a copy, so ``M`` is not
    written; see :func:`_into_completion_basis`.
    """
    return _into_completion_basis(np.array(M, dtype=float), n)


def _into_completion_basis(M: np.ndarray, n: int) -> np.ndarray:
    """:func:`in_completion_basis` of the float array ``M``, written over ``M``.

    Returns ``M``. X and Y are read from ``M`` first; then V X and Y V' are
    formed in turn in one product buffer and subtracted in place, in the
    order of M - V X - Y V', so the result is bit for bit that expression's
    while the peak is ``M`` and the buffer, two arrays of its size.
    """
    N = M.shape[0] // n
    v, beta = _reflector(N)
    V = (v[:, None, None] * np.eye(n)).reshape(N * n, n)
    MV = beta * (M @ V)
    G = (0.5 * beta) * (V.T @ MV)
    X = beta * (V.T @ M) - G @ V.T
    Y = MV - V @ G
    product = V @ X
    M -= product
    M -= np.matmul(Y, V.T, out=product)
    return M
