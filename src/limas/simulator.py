"""Closed-loop assembly and trajectory simulation of the stacked system.

The stacked update is x+ = (I_N (x) A - Lp (x) Ap + Lc (x) BK) x. The
simulator iterates the full state and derives the deviation from the
running consensus mean at every step, so both the convergence curves and
the consensus trajectory itself are available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import Overflow, ShapeMismatch
from .linalg import as_matrix

if TYPE_CHECKING:
    from .analysis import LimasModel

OVERFLOW_GUARD = 1e100
SETTLING_THRESHOLD = 1e-3
# Deviations this far below the state norm are cancellation noise, not signal.
DEVIATION_FLOOR_RTOL = 1e-12


def closed_loop_matrix(model: LimasModel, K) -> np.ndarray:
    """Kronecker assembly of the stacked closed-loop update matrix."""
    K = as_matrix(K, rows=1, cols=model.n, name="K")
    return (np.kron(np.eye(model.N), model.A)
            - np.kron(model.laplacian_p, model.Ap)
            + np.kron(model.laplacian_c, model.B @ K))


def deviation(x, N: int, n: int) -> np.ndarray:
    """Deviation of each agent block from the mean of all blocks.

    Equals the centering projection ((I_N - ones/N) (x) I_n) applied to x.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != N * n:
        raise ShapeMismatch(f"state length {x.size} does not match N*n = {N * n}")
    blocks = x.reshape(N, n)
    return (blocks - blocks.mean(axis=0)).ravel()


@dataclass
class Trajectory:
    """A simulated run: states, per-agent deviation norms, consensus trace."""

    states: np.ndarray       # (T+1, N*n)
    delta_norms: np.ndarray  # (T+1, N)
    xbar: np.ndarray         # (T+1, n)
    decay_estimate: float | None = None
    seed: int | None = None

    @property
    def step_count(self) -> int:
        return self.states.shape[0] - 1


def initial_state(model: LimasModel, seed: int, low: float = 0.0,
                  high: float = 10.0) -> np.ndarray:
    """Seeded uniform initial state; identical seeds give identical states."""
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=model.N * model.n)


def simulate(model: LimasModel, K, x0, steps: int,
             seed: int | None = None) -> Trajectory:
    """Iterate the stacked closed loop for ``steps`` updates.

    Raises Overflow (with the offending step) as soon as any state entry
    exceeds 1e100 in magnitude, which signals an unstable loop.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != model.N * model.n:
        raise ShapeMismatch(
            f"x0 length {x.size} does not match N*n = {model.N * model.n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 contains non-finite entries")

    M = closed_loop_matrix(model, K)
    N, n = model.N, model.n
    states = np.empty((steps + 1, N * n))
    delta_norms = np.empty((steps + 1, N))
    xbar = np.empty((steps + 1, n))

    for t in range(steps + 1):
        if float(np.max(np.abs(x))) > OVERFLOW_GUARD:
            raise Overflow(t)
        states[t] = x
        blocks = x.reshape(N, n)
        xbar[t] = blocks.mean(axis=0)
        delta_norms[t] = np.linalg.norm(blocks - xbar[t], axis=1)
        if t < steps:
            x = M @ x

    traj = Trajectory(states, delta_norms, xbar, seed=seed)
    if steps >= 10:
        traj.decay_estimate = convergence_metrics(traj).rate
    return traj


@dataclass(frozen=True)
class ConvergenceMetrics:
    """Fitted geometric decay rate and the first step under the threshold.

    ``no_decay`` flags a non-shrinking deviation (fitted rate >= 1).
    ``settling_step`` is None when the threshold is never reached.
    """

    rate: float
    settling_step: int | None
    no_decay: bool


def convergence_metrics(traj: Trajectory,
                        threshold: float = SETTLING_THRESHOLD) -> ConvergenceMetrics:
    """Summarize a trajectory's convergence behaviour.

    The rate is exp of the least-squares slope of log total deviation norm
    over the tail half of the run; settling is judged on the worst agent.
    Steps whose deviation sits below 1e-12 of the state norm are treated as
    numerically settled and excluded from the fit (a loop whose consensus
    trajectory grows leaves only cancellation noise there).
    """
    total = np.linalg.norm(traj.delta_norms, axis=1)
    T = total.size - 1
    if T < 10:
        raise ValueError("need at least 10 steps to fit a decay rate")

    settling_step = None
    below = np.nonzero(traj.delta_norms.max(axis=1) < threshold)[0]
    if below.size:
        settling_step = int(below[0])

    tail = np.arange(T // 2, T + 1)
    floor = DEVIATION_FLOOR_RTOL * np.linalg.norm(traj.states[tail], axis=1)
    usable = total[tail] > floor
    if int(np.count_nonzero(usable)) < 2:
        # Deviation at or below the numerical floor throughout: settled.
        return ConvergenceMetrics(0.0, settling_step, False)
    slope = float(np.polyfit(tail[usable], np.log(total[tail][usable]), 1)[0])
    rate = float(np.exp(slope))
    # slopes at fp-noise level count as flat, hence non-decaying
    return ConvergenceMetrics(rate, settling_step, slope >= -1e-12)
