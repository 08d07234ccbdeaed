"""Dense real linear algebra kernels used throughout the toolkit.

Everything operates on plain float64 numpy arrays. Agent dimensions stay
small (n <= ~10), stacked ones reach N*n ~ 1000, and per-mode quantities
run on stacks of n x n matrices; the routines favor accuracy and
determinism: symmetric problems go through ``eigh``, general spectra
through ``eigvals``, ranks through singular values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInput, NoConvergence, NotSymmetric, ShapeMismatch

# Symmetry tolerance, relative to the Frobenius norm of the input.
SYMMETRY_RTOL = 1e-9
# Controllability rank threshold is n * sigma_max * RANK_RTOL.
RANK_RTOL = 1e-12
# gain_kernel needs B'PB > BTPB_RTOL * ||P||_F * B'B, a floor free of B's scale.
BTPB_RTOL = 1e-14


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
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def as_square(obj, name: str = "matrix") -> np.ndarray:
    M = as_matrix(obj, name=name)
    if M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got {M.shape[0]}x{M.shape[1]}")
    return M


class EigenSym(NamedTuple):
    """Eigen-decomposition of a symmetric matrix.

    ``values`` are ascending; ``vectors`` holds the matching orthonormal
    eigenvectors as columns.
    """

    values: np.ndarray
    vectors: np.ndarray


def eig_sym(M) -> EigenSym:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""
    M = as_square(M)
    scale = float(np.linalg.norm(M))
    if float(np.linalg.norm(M - M.T)) > SYMMETRY_RTOL * scale:
        raise NotSymmetric(f"matrix is not symmetric within {SYMMETRY_RTOL:g} relative")
    try:
        values, vectors = np.linalg.eigh((M + M.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return EigenSym(values, vectors)


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


def controllability_singular_values(M, B) -> np.ndarray:
    """Descending singular values of the controllability matrix [B, MB, ..., M^(n-1)B].

    ``M`` is one n x n matrix or a stack of shape (..., n, n); the result
    holds one row of singular values per stacked matrix.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    B = as_matrix(B, name="B")
    if B.shape[0] != n:
        raise ShapeMismatch(f"B must have {n} rows, got {B.shape[0]}")
    blocks = [np.broadcast_to(B, M.shape[:-2] + B.shape)]
    for _ in range(n - 1):
        blocks.append(M @ blocks[-1])
    return np.linalg.svd(np.concatenate(blocks, axis=-1), compute_uv=False)


def has_rank(sv: np.ndarray, n: int) -> np.bool_ | np.ndarray:
    """Do the descending singular values ``sv`` show rank ``n``?

    A singular value counts when it exceeds ``n * sigma_max * RANK_RTOL``.
    ``sv`` is one row (the result is a bool) or a stack of rows, as
    :func:`controllability_singular_values` returns them (one bool per row).
    """
    return np.count_nonzero(sv > n * sv[..., :1] * RANK_RTOL, axis=-1) == n


def is_controllable(M, B) -> bool:
    """Kalman rank test: [B, MB, ..., M^(n-1)B] must have full row rank.

    Rank is decided by :func:`has_rank` on the controllability singular values.
    """
    M = as_square(M, name="M")
    return bool(has_rank(controllability_singular_values(M, B), M.shape[0]))


def controllability_margin(M, B) -> float:
    """Smallest singular value of the controllability matrix, whatever the rank.

    For an uncontrollable pair it is small but rarely exactly 0;
    :func:`has_rank` decides the rank.
    """
    M = as_square(M, name="M")
    return float(controllability_singular_values(M, B)[-1])


def gain_kernel(P, B, A) -> np.ndarray:
    """Feedback direction ``(B'PB)^{-1} B'PA`` induced by a Riccati solution P.

    B must be a single column; raises DegenerateInput unless B'PB exceeds
    ``BTPB_RTOL * ||P||_F * B'B``. The floor scales with B as B'PB does, so
    rescaling B only rescales the result.
    """
    P = as_square(P, name="P")
    n = P.shape[0]
    B = as_matrix(B, rows=n, cols=1, name="B")
    A = as_matrix(A, rows=n, cols=n, name="A")
    btpb = float((B.T @ P @ B).item())
    if btpb <= BTPB_RTOL * float(np.linalg.norm(P)) * float((B.T @ B).item()):
        raise DegenerateInput(f"B'PB = {btpb:g} is not safely positive")
    return (B.T @ P @ A) / btpb


def ones_completion(n: int) -> np.ndarray:
    """Orthogonal basis whose first column is the normalized all-ones vector.

    The remaining columns come from a QR factorization of
    [1/sqrt(n), e_1, ..., e_{n-1}] with signs pinned, so the completion is
    deterministic and reproducible.
    """
    if n < 1:
        raise ShapeMismatch("completion needs n >= 1")
    M = np.empty((n, n))
    M[:, 0] = 1.0 / math.sqrt(n)
    M[:, 1:] = np.eye(n)[:, : n - 1]
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    Q[:, 0] = 1.0 / math.sqrt(n)
    return Q
