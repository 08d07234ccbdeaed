"""Brute-force ground truth for the analytic consensusability verdicts.

Nothing here reuses the condition logic from :mod:`limas.analysis`: gains
are judged by projecting the stacked closed loop onto the orthogonal
complement of the consensus subspace and reading off the spectral radius
directly. That projection needs no commuting assumption, which is what
makes it a fair referee. Every verdict goes through the one projection,
:func:`projected_deviation_matrix`, and so through its invariance gate.
The scalar gain grid leaves no point unjudged: each grid point is either
evaluated or excluded by a proven lower bound on its radius, a bound that
keeps the result identical to evaluating every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NotDeviationInvariant, NotScalar, ShapeMismatch
from .linalg import _into_completion_basis, as_square, eig_general
from .simulator import closed_loop_matrix

if TYPE_CHECKING:
    from .analysis import LimasModel

GRID_LO = -20.0
GRID_HI = 20.0
GRID_COUNT = 40_001
# The grid is evaluated in blocks of this many floats (8 MiB), or of one
# matrix when a matrix is larger, so its memory does not grow with the
# number of grid points.
GRID_BLOCK_FLOATS = 2**20
# A grid point is excluded without an eigensolve when the Lipschitz lower
# bound on its radius, less GRID_PRUNE_RTOL * (||base||_F + max(|lo|, |hi|)
# * ||step||_F), still exceeds 1 and the smallest coarse radius. The slack
# is far above the rounding of forming a grid matrix and of eigvalsh.
GRID_PRUNE_RTOL = 1e-8
# Invariance gate: sqrt(N) times the block of Atil moving the consensus subspace
# out of itself is <= INVARIANCE_RTOL * ||Atil||_F (n = 1: ||Atil 1 - mean 1||).
INVARIANCE_RTOL = 1e-8


def projected_deviation_matrix(Atil, n: int = 1) -> np.ndarray:
    """Restrict a stacked matrix of N blocks of size n to the deviations.

    With psi = H (x) I_n for the Householder reflector H = I - beta vv',
    v = e_1 + 1/sqrt(N) 1, whose first column is the consensus direction
    -1/sqrt(N) 1, returns the block of psi' Atil psi (formed by
    :func:`limas.linalg.in_completion_basis`, without psi) that acts on the
    complement of the consensus subspace span{1 (x) e_j}. It works on a
    copy, so ``Atil`` is not written.
    Raises NotDeviationInvariant when Atil moves that subspace out of itself
    by more than the INVARIANCE_RTOL gate, and ShapeMismatch when the size
    of Atil is not a multiple of n.
    """
    Atil = as_square(Atil, name="Atil")
    if n < 1 or Atil.shape[0] % n:
        raise ShapeMismatch(f"Atil of size {Atil.shape[0]} is not made of {n} x {n} blocks")
    return _deviation_block(Atil.copy(order="K"), n)


def _deviation_block(Atil: np.ndarray, n: int) -> np.ndarray:
    """:func:`projected_deviation_matrix` of ``Atil``, which it overwrites.

    ||Atil||_F is read for the gate before the reflector update runs in
    place, and the result is a view into ``Atil``.
    """
    N = Atil.shape[0] // n
    scale = np.linalg.norm(Atil)
    moved = _into_completion_basis(Atil, n)
    if np.sqrt(N) * np.linalg.norm(moved[n:, :n]) > INVARIANCE_RTOL * scale:
        raise NotDeviationInvariant(
            "the consensus subspace is not invariant under this matrix")
    return moved[n:, n:]


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of a scan of a grid of scalar gains.

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

    Raises NotDeviationInvariant unless a*I - Lp and Lc keep the all-ones
    vector invariant. The projected matrices M(k) = base + k*step are
    symmetric, so the radius r(k) = ||M(k)||_2 is Lipschitz in k with
    constant ||step||_2 <= ||step||_F. A coarse pass evaluates every
    isqrt(count)-th point and the last. Between coarse neighbours k1 < k2
    every radius is at least (r(k1) + r(k2) - (k2 - k1)*||step||_F) / 2; a
    gap whose bound, less the GRID_PRUNE_RTOL slack, exceeds max(1, smallest
    coarse radius) holds no stabilizing point and no minimum, so it is
    skipped, and every other gap is evaluated in full. The result is bit for
    bit that of evaluating every point.
    """
    Lp = as_square(Lp, name="Lp")
    Lc = as_square(Lc, name="Lc")
    if Lp.shape != Lc.shape:
        raise ShapeMismatch(f"Laplacians differ in size: {Lp.shape} vs {Lc.shape}")
    if count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"grid bounds must be finite with lo < hi, got lo = {lo}, hi = {hi}")
    base = projected_deviation_matrix(float(a) * np.eye(Lp.shape[0]) - Lp)
    step = projected_deviation_matrix(Lc)
    base = (base + base.T) / 2.0
    step = (step + step.T) / 2.0

    ks = np.linspace(lo, hi, count)
    radii = np.full(count, np.inf)
    coarse = np.unique(np.append(np.arange(0, count, math.isqrt(count)), count - 1))
    radii[coarse] = _radii(ks[coarse], base, step)

    lipschitz = np.linalg.norm(step)
    slack = GRID_PRUNE_RTOL * (np.linalg.norm(base) + max(abs(lo), abs(hi)) * lipschitz)
    bound = (radii[coarse[:-1]] + radii[coarse[1:]]
             - np.diff(ks[coarse]) * lipschitz) / 2.0 - slack
    # a NaN radius makes tau NaN, which excludes nothing
    tau = np.maximum(1.0, radii[coarse].min())
    in_open_gap = np.repeat(~(bound > tau), np.diff(coarse))  # point i, gap after it
    in_open_gap[coarse[:-1]] = False
    fine = np.flatnonzero(in_open_gap)
    radii[fine] = _radii(ks[fine], base, step)

    best = int(np.argmin(radii))
    return GridSearchResult(
        lo=float(lo), hi=float(hi), count=int(count),
        stabilizing_k=ks[radii < 1.0],
        best_k=float(ks[best]), best_radius=float(radii[best]))


def _radii(ks: np.ndarray, base: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Spectral radius of base + k*step for each k, in blocks of GRID_BLOCK_FLOATS.

    A block holds GRID_BLOCK_FLOATS floats, or one matrix if that is larger,
    and is one batched symmetric eigenproblem; blocks run in the order of ks.
    """
    radii = np.empty(ks.size)
    block = np.empty((max(1, min(ks.size, GRID_BLOCK_FLOATS // step.size)),) + step.shape)
    for start in range(0, ks.size, len(block)):
        part = block[:ks.size - start]
        np.multiply(ks[start:start + len(part), None, None], step, out=part)
        part += base
        radii[start:start + len(part)] = np.max(np.abs(np.linalg.eigvalsh(part)), axis=1)
    return radii


@dataclass(frozen=True)
class GainVerification:
    stable: bool
    max_radius: float


def verify_gain(model: LimasModel, K) -> GainVerification:
    """Directly verify a gain on the full stacked closed loop.

    Projects out the consensus subspace span{ones (x) e_j} of the assembled
    closed-loop matrix and checks the restricted spectral radius. Works for
    any model; commuting Laplacians are not required. The projection of
    :func:`projected_deviation_matrix` runs in place on the loop it has
    just built, so the peak is two (Nn)^2 arrays: the loop with the
    update's product buffer, then with the eigensolver's own copy of its
    deviation block. The assembly's N x N scratch array is freed before
    the projection starts.
    """
    restricted = _deviation_block(closed_loop_matrix(model, K), model.n)
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
