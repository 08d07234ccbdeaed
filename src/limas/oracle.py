"""Brute-force ground truth for the analytic consensusability verdicts.

Nothing here reuses the condition logic from :mod:`limas.analysis`: gains
are judged by projecting the stacked closed loop onto the orthogonal
complement of the consensus subspace and reading off the spectral radius
directly. That projection needs no commuting assumption, which is what
makes it a fair referee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NotDeviationInvariant, NotScalar, ShapeMismatch
from .linalg import as_square, eig_general, ones_completion
from .simulator import closed_loop_matrix

if TYPE_CHECKING:
    from .analysis import LimasModel

GRID_LO = -20.0
GRID_HI = 20.0
GRID_COUNT = 40_001
# All-ones invariance gate: ||Atil 1 - mean 1|| <= INVARIANCE_RTOL * max(1, ||Atil||_F).
INVARIANCE_RTOL = 1e-8


def projected_deviation_matrix(Atil, basis: np.ndarray | None = None) -> np.ndarray:
    """Restrict a matrix with the all-ones direction invariant to its complement.

    ``basis`` may supply an alternative orthonormal completion (first column
    must be the normalized all-ones vector); the restricted spectrum does
    not depend on that choice.
    """
    Atil = as_square(Atil, name="Atil")
    N = Atil.shape[0]
    ones = np.ones(N)
    row_action = Atil @ ones
    mean = float(ones @ row_action) / N
    gate = INVARIANCE_RTOL * max(1.0, float(np.linalg.norm(Atil)))
    if float(np.linalg.norm(row_action - mean * ones)) > gate:
        raise NotDeviationInvariant(
            "the all-ones direction is not invariant under this matrix")
    psi = ones_completion(N) if basis is None else basis
    return (psi.T @ Atil @ psi)[1:, 1:]


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of an exhaustive scan over scalar gains.

    ``stabilizing_k`` holds every grid point whose projected deviation
    matrix has spectral radius strictly below one, in ascending order.
    """

    lo: float
    hi: float
    count: int
    stabilizing_k: np.ndarray
    best_k: float
    best_radius: float

    def stabilizing_intervals(self) -> list[tuple[float, float]]:
        """Maximal runs of consecutive stabilizing grid points."""
        ks = self.stabilizing_k
        if ks.size == 0:
            return []
        spacing = (self.hi - self.lo) / (self.count - 1)
        intervals = []
        start = prev = ks[0]
        for k in ks[1:]:
            if k - prev > 1.5 * spacing:
                intervals.append((float(start), float(prev)))
                start = k
            prev = k
        intervals.append((float(start), float(prev)))
        return intervals


def scalar_grid_search(a: float, Lp, Lc, lo: float = GRID_LO,
                       hi: float = GRID_HI, count: int = GRID_COUNT) -> GridSearchResult:
    """Scan scalar gains k, testing a*I - Lp + k*Lc on the deviation subspace.

    The projected matrices are symmetric, so the whole grid is evaluated as
    one batched symmetric eigenproblem. Results are assembled in grid
    order regardless of how the batch is computed.
    """
    Lp = as_square(Lp, name="Lp")
    Lc = as_square(Lc, name="Lc")
    if Lp.shape != Lc.shape:
        raise ShapeMismatch(f"Laplacians differ in size: {Lp.shape} vs {Lc.shape}")
    if count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    N = Lp.shape[0]
    psi = ones_completion(N)
    W = psi[:, 1:]
    base = W.T @ (float(a) * np.eye(N) - Lp) @ W
    step = W.T @ Lc @ W
    base = (base + base.T) / 2.0
    step = (step + step.T) / 2.0

    ks = np.linspace(lo, hi, count)
    stacked = base[None, :, :] + ks[:, None, None] * step[None, :, :]
    radii = np.max(np.abs(np.linalg.eigvalsh(stacked)), axis=1)

    best = int(np.argmin(radii))
    return GridSearchResult(
        lo=float(lo), hi=float(hi), count=int(count),
        stabilizing_k=ks[radii < 1.0],
        best_k=float(ks[best]), best_radius=float(radii[best]))


@dataclass(frozen=True)
class GainVerification:
    stable: bool
    max_radius: float


def verify_gain(model: LimasModel, K) -> GainVerification:
    """Directly verify a gain on the full stacked closed loop.

    Projects out the consensus subspace span{ones (x) e_j} of the assembled
    closed-loop matrix and checks the restricted spectral radius. Works for
    any model; commuting Laplacians are not required.
    """
    M = closed_loop_matrix(model, K)
    psi = np.kron(ones_completion(model.N), np.eye(model.n))
    restricted = (psi.T @ M @ psi)[model.n:, model.n:]
    radius = float(np.max(np.abs(eig_general(restricted))))
    return GainVerification(radius < 1.0, radius)


def scalar_model_grid_search(model: LimasModel, lo: float = GRID_LO,
                             hi: float = GRID_HI,
                             count: int = GRID_COUNT) -> GridSearchResult:
    """Grid search on a model with scalar agent dynamics (n must be 1)."""
    if model.n != 1:
        raise NotScalar(f"grid search needs n = 1, got n = {model.n}")
    a = float(model.A.item())
    b = float(model.B.item())
    ap = float(model.Ap.item())
    # With n = 1 the stacked loop is a*I - ap*Lp + b*k*Lc; fold b and ap in.
    return scalar_grid_search(a, ap * model.laplacian_p,
                              b * model.laplacian_c, lo=lo, hi=hi, count=count)
