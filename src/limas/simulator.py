"""Closed-loop assembly and trajectory simulation of the stacked system.

The stacked update is x+ = (I_N (x) A - Lp (x) Ap + Lc (x) BK) x. The
simulator carries the two quantities a run reports, each by its own exact
recurrence, and never forms the stacked state. Laplacian columns sum to
zero, so the consensus mean follows xbar+ = A xbar. The stacked deviation
d = x - 1 (x) xbar follows d+ = (M - (11'/N) (x) A) d with M the stacked
matrix. That update maps every vector into the deviation subspace, so the
rounding of one step that leaks into the consensus direction is removed by
the next step instead of growing with the mean. The deviations therefore
stay accurate while the mean grows or decays, and a run stops only where a
number it reports would leave the float range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import Overflow, ShapeMismatch
from .linalg import as_matrix

if TYPE_CHECKING:
    from .analysis import LimasModel

SETTLING_THRESHOLD = 1e-3
# A fitted log-slope at or above this is fp noise around zero: no decay.
FLAT_SLOPE = -1e-12


def closed_loop_matrix(model: LimasModel, K) -> np.ndarray:
    """The stacked closed-loop update matrix I_N (x) A - Lp (x) Ap + Lc (x) BK.

    The loop is one (N, n, N, n) array, filled one (a, b) block at a time so
    that every numpy call runs along an N-long axis: the block loop[:, a, :, b]
    gets 0 * A[a, b] (the signed zero np.kron forms off the diagonal), then
    A[a, b] on its diagonal, then Lp * Ap[a, b] is subtracted and
    Lc * BK[a, b] added through one N x N scratch array. The entries are bit
    for bit those of the np.kron expression, and the peak is the loop and
    that scratch array.
    """
    K = as_matrix(K, rows=1, cols=model.n, name="K")
    N, n = model.N, model.n
    A, Ap, BK = model.A, model.Ap, model.B @ K
    Lp, Lc = model.laplacian_p, model.laplacian_c
    loop = np.empty((N, n, N, n))
    diagonal = np.arange(N)
    term = np.empty((N, N))
    for a in range(n):
        for b in range(n):
            block = loop[:, a, :, b]
            block.fill(0.0 * A[a, b])
            block[diagonal, diagonal] = A[a, b]
            block -= np.multiply(Lp, Ap[a, b], out=term)
            block += np.multiply(Lc, BK[a, b], out=term)
    return loop.reshape(N * n, N * n)


@dataclass
class Trajectory:
    """A simulated run: per-agent deviation norms and the consensus trace."""

    delta_norms: np.ndarray  # (T+1, N)
    xbar: np.ndarray         # (T+1, n)

    @property
    def step_count(self) -> int:
        return self.xbar.shape[0] - 1


def initial_state(model: LimasModel, seed: int) -> np.ndarray:
    """Seeded initial state, uniform on [0, 10); identical seeds give identical states."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 10.0, size=model.N * model.n)


def simulate(model: LimasModel, K, x0, steps: int) -> Trajectory:
    """Iterate the consensus mean and the stacked deviation for ``steps`` updates.

    The deviation update is the :func:`closed_loop_matrix` buffer with A/N
    subtracted from every block in place, and the per-agent norms scale each
    agent by a power of two; both run one entry of A or one state component
    at a time, so each numpy call spans N blocks or N agents, not n entries.
    Raises Overflow with the first step at which an entry of the mean or of
    the deviation is beyond max / (N n) in magnitude, max the largest
    float, or nan. Within that bound every per-agent norm (at most sqrt(n)
    times it) and every per-step total that convergence_metrics fits (at
    most max / sqrt(N n)) is finite, so a run that stays in range
    completes, growing or not. The steps are judged after the run.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = np.asarray(x0, dtype=float).ravel()
    N, n = model.N, model.n
    if x.size != N * n:
        raise ShapeMismatch(f"x0 length {x.size} does not match N*n = {N * n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 contains non-finite entries")

    A = model.A
    D = closed_loop_matrix(model, K)
    # D = M - (11'/N) (x) A: every (i, j) block of M loses A/N, in place,
    # one entry of A at a time over all N^2 blocks
    blocks = D.reshape(N, n, N, n)
    for a in range(n):
        for b in range(n):
            blocks[:, a, :, b] -= A[a, b] / N
    mean = x.reshape(N, n).mean(axis=0)
    d = (x.reshape(N, n) - mean).ravel()
    xbar = np.empty((steps + 1, n))
    deviations = np.empty((steps + 1, N * n))
    xbar[0], deviations[0] = mean, d
    # an unstable run may overflow to inf and nan; the rows are judged below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, steps + 1):
            d = D @ d
            mean = A @ mean
            xbar[t], deviations[t] = mean, d
    # a nan propagates through max and min and fails the comparisons
    bound = np.finfo(float).max / (N * n)
    within = np.ones(steps + 1, dtype=bool)
    for part in (deviations, xbar):
        within &= (part.max(axis=1) <= bound) & (part.min(axis=1) >= -bound)
    if not within.all():
        raise Overflow(int(np.argmin(within)))

    # each agent's block is scaled by the power of two of its largest entry, an
    # exact operation, so squaring a deviation below 1e-154 cannot underflow
    scaled, exponent = _scaled_by_largest_entry(deviations.reshape(steps + 1, N, n))
    delta_norms = np.ldexp(np.linalg.norm(scaled, axis=2), exponent)
    return Trajectory(delta_norms, xbar)


def _scaled_by_largest_entry(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each block blocks[t, i] times 2^-e and e, the frexp exponent of its
    largest |entry|; the maximum and the scaling run one component at a time.
    Its temporaries are freed on return, so they are gone before the
    caller's norm squares the scaled blocks into one more array of their size."""
    largest = np.abs(blocks[..., 0])
    for j in range(1, blocks.shape[2]):
        np.maximum(largest, np.abs(blocks[..., j]), out=largest)
    exponent = np.frexp(largest)[1]
    shift = -exponent
    scaled = np.empty_like(blocks)
    for j in range(blocks.shape[2]):
        np.ldexp(blocks[..., j], shift, out=scaled[..., j])
    return scaled, exponent


@dataclass(frozen=True)
class ConvergenceMetrics:
    """Fitted geometric decay rate and the first step under SETTLING_THRESHOLD.

    ``no_decay`` flags a non-shrinking deviation (fitted rate >= 1).
    ``settling_step`` is None when the threshold is never reached.
    """

    rate: float
    settling_step: int | None
    no_decay: bool


def convergence_metrics(traj: Trajectory) -> ConvergenceMetrics:
    """Summarize a trajectory's convergence behaviour.

    The rate is exp of the least-squares slope of log total deviation norm
    over the tail half of the run. The fit reads only the tail steps whose
    total deviation is a positive normal float: a deviation that decayed to
    zero or into the subnormal range has no usable logarithm, and a run
    with fewer than two such steps counts as settled (rate 0). The
    settling step is the first whose worst agent deviation is below
    SETTLING_THRESHOLD.
    """
    # each step is scaled by the power of two of its largest agent norm, as
    # simulate scales each agent, so the squares of small norms cannot underflow
    exponent = np.frexp(traj.delta_norms.max(axis=1))[1]
    total = np.ldexp(np.linalg.norm(np.ldexp(traj.delta_norms, -exponent[:, None]), axis=1),
                     exponent)
    T = total.size - 1
    if T < 10:
        raise ValueError("need at least 10 steps to fit a decay rate")

    settling_step = None
    below = np.nonzero(traj.delta_norms.max(axis=1) < SETTLING_THRESHOLD)[0]
    if below.size:
        settling_step = int(below[0])

    tail = np.arange(T // 2, T + 1)
    tail = tail[total[tail] >= np.finfo(float).tiny]
    if tail.size < 2:
        return ConvergenceMetrics(0.0, settling_step, False)
    slope = float(np.polyfit(tail, np.log(total[tail]), 1)[0])
    rate = float(np.exp(slope))
    return ConvergenceMetrics(rate, settling_step, slope >= FLAT_SLOPE)
