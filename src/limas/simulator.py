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

Up to STACKED_LOOP_BYTES of it, and always at n = 1, the deviation update
is one dense (Nn)^2 matrix. Beyond, the agents' deviations X, one row
each, step by the same update in Kronecker form,
X+ = X A' - Lp X Ap' + Lc X (BK)' - 1 (A mean X)', which reads the two
N x N Laplacians instead.
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
# simulate steps through the stacked (Nn)^2 deviation update while it holds
# at most this many bytes; beyond, at n >= 2, through the two Laplacians,
# 2 N^2 entries against (Nn)^2 a step (at n = 1 that is more, so n = 1
# always stays stacked). Medians of 40 interleaved 300-step simulate calls,
# stacked / Laplacians in ms, on a 2-vCPU Xeon guest with 2 MiB of L2 a core:
#   n = 2   N = 128 (0.50 MiB)  4.60 / 5.32   N = 181 (1.00 MiB)  6.20 / 6.08
#           N = 200 (1.22 MiB)  8.46 / 7.14   N = 256 (2.00 MiB) 16.58 / 10.32
#   n = 3   N =  86 (0.51 MiB)  3.74 / 4.21   N = 107 (0.79 MiB)  5.72 / 4.99
#   n = 4   N =  56 (0.38 MiB)  2.96 / 3.19   N =  64 (0.50 MiB)  3.48 / 3.44
#           N =  80 (0.78 MiB)  4.82 / 3.86   N = 128 (2.00 MiB) 17.64 / 5.79
# The crossover lies near 1 MiB at n = 2 and at 0.5-0.75 MiB at n = 3 and
# 4; once the loop outgrows L2 the stacked steps slow down about twofold.
STACKED_LOOP_BYTES = 2**20


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
    A, Ap, Lp, Lc = model.A, model.Ap, model.laplacian_p, model.laplacian_c
    loop = np.empty((N, n, N, n))
    diagonal = np.arange(N)
    term = np.empty((N, N))
    # a gain beyond the float range gives inf and nan entries, which the
    # callers refuse: simulate by its Overflow, the oracle by its gate
    with np.errstate(over="ignore", invalid="ignore"):
        BK = model.B @ K
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

    The deviations step through the stacked update, :func:`_deviation_loop`,
    while its (Nn)^2 floats fit in STACKED_LOOP_BYTES or n = 1, and through
    the two Laplacians, :func:`_step_by_laplacians`, otherwise; the two
    agree to rounding. The per-agent norms scale each agent by a power of
    two and have the bits of np.linalg.norm of the scaled agent; see
    :func:`_agent_norms`.
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
    stacked = n == 1 or (N * n) ** 2 * 8 <= STACKED_LOOP_BYTES
    D = _deviation_loop(model, K) if stacked else None
    mean = x.reshape(N, n).mean(axis=0)
    d = (x.reshape(N, n) - mean).ravel()
    xbar = np.empty((steps + 1, n))
    deviations = np.empty((steps + 1, N * n))
    xbar[0], deviations[0] = mean, d
    # an unstable run may overflow to inf and nan; the rows are judged below
    with np.errstate(over="ignore", invalid="ignore"):
        if stacked:
            for t in range(1, steps + 1):
                d = D @ d
                mean = A @ mean
                xbar[t], deviations[t] = mean, d
        else:
            _step_by_laplacians(model, K, deviations.reshape(steps + 1, N, n))
            for t in range(1, steps + 1):
                mean = A @ mean
                xbar[t] = mean
    # a nan propagates through max and min and fails the comparisons
    bound = np.finfo(float).max / (N * n)
    within = np.ones(steps + 1, dtype=bool)
    for part in (deviations, xbar):
        within &= (part.max(axis=1) <= bound) & (part.min(axis=1) >= -bound)
    if not within.all():
        raise Overflow(int(np.argmin(within)))

    return Trajectory(_agent_norms(deviations.reshape(steps + 1, N, n)), xbar)


def _deviation_loop(model: LimasModel, K) -> np.ndarray:
    """The stacked deviation update M - (11'/N) (x) A, formed in the
    :func:`closed_loop_matrix` buffer."""
    N, n, A = model.N, model.n, model.A
    D = closed_loop_matrix(model, K)
    # every (i, j) block of M loses A/N, in place, one entry of A at a
    # time, so each numpy call spans all N^2 blocks
    blocks = D.reshape(N, n, N, n)
    for a in range(n):
        for b in range(n):
            blocks[:, a, :, b] -= A[a, b] / N
    return D


def _step_by_laplacians(model: LimasModel, K, X: np.ndarray) -> None:
    """Fill X[1:] by X+ = X A' - Lp X Ap' + Lc X (BK)' - 1 (A mean X)' from X[0].

    X[t] holds the deviations of step t, one agent a row, so X[t] is the
    stacked deviation d. Each step forms X A', -X Ap' and X (BK)' in one
    product, applies [Lp | Lc] to the last two in a second, straight into
    X[t], and adds X A' less its mean over the agents, which is (A mean X)'.
    Its largest array is [Lp | Lc], 2 N^2 floats, not the (Nn)^2 loop.
    """
    K = as_matrix(K, rows=1, cols=model.n, name="K")
    N, n, A = model.N, model.n, model.A
    laplacians = np.hstack((model.laplacian_p, model.laplacian_c))
    factors = np.stack((A.T, -model.Ap.T, (model.B @ K).T))
    terms = np.empty((3, N, n))
    coupled = terms[1:].reshape(2 * N, n)
    share = np.full(N, 1.0 / N)
    for t in range(1, len(X)):
        np.matmul(X[t - 1], factors, out=terms)
        np.matmul(laplacians, coupled, out=X[t])
        X[t] += terms[0]
        X[t] -= share @ terms[0]


def _agent_norms(blocks: np.ndarray) -> np.ndarray:
    """The 2-norm of each block blocks[t, i], with the bits of np.linalg.norm.

    Each block is scaled by 2^-e, e the frexp exponent of its largest
    |entry|, an exact operation, so squaring a deviation below 1e-154
    cannot underflow, and the root is scaled back by 2^e. numpy sums fewer
    than eight terms along a reduced axis in index order, and more in its
    own pairwise blocks, so below n = 8 the squares are summed one
    component at a time, each numpy call spanning T N agents; from n = 8 on
    the scaled blocks go to np.linalg.norm itself."""
    T, N, n = blocks.shape
    largest = np.abs(blocks[..., 0])
    for j in range(1, n):
        np.maximum(largest, np.abs(blocks[..., j]), out=largest)
    exponent = np.frexp(largest)[1]
    if n >= 8:
        return np.ldexp(np.linalg.norm(np.ldexp(blocks, -exponent[..., None]), axis=2),
                        exponent)
    shift = -exponent
    squares = np.empty((n, T, N))
    for j in range(n):
        np.ldexp(blocks[..., j], shift, out=squares[j])
    np.square(squares, out=squares)
    total = squares[0]
    for j in range(1, n):
        total += squares[j]
    return np.ldexp(np.sqrt(total, out=total), exponent)


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
    worst = traj.delta_norms.max(axis=1)
    exponent = np.frexp(worst)[1]
    total = np.ldexp(np.linalg.norm(np.ldexp(traj.delta_norms, -exponent[:, None]), axis=1),
                     exponent)
    T = total.size - 1
    if T < 10:
        raise ValueError("need at least 10 steps to fit a decay rate")

    settling_step = None
    below = np.nonzero(worst < SETTLING_THRESHOLD)[0]
    if below.size:
        settling_step = int(below[0])

    tail = np.arange(T // 2, T + 1)
    tail = tail[total[tail] >= np.finfo(float).tiny]
    if tail.size < 2:
        return ConvergenceMetrics(0.0, settling_step, False)
    slope = float(np.polyfit(tail, np.log(total[tail]), 1)[0])
    rate = float(np.exp(slope))
    return ConvergenceMetrics(rate, settling_step, slope >= FLAT_SLOPE)
