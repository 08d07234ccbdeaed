"""Closed-loop assembly and trajectory simulation of the stacked system.

The stacked update is x+ = (I_N (x) A - Lp (x) Ap + Lc (x) BK) x. The
simulator iterates the full state, then derives from the stored states the
consensus mean and each agent's deviation from it, so both the convergence
curves and the consensus trajectory itself are available.
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
# A fitted log-slope at or above this is fp noise around zero: no decay.
FLAT_SLOPE = -1e-12


def closed_loop_matrix(model: LimasModel, K) -> np.ndarray:
    """Kronecker assembly of the stacked closed-loop update matrix."""
    K = as_matrix(K, rows=1, cols=model.n, name="K")
    return (np.kron(np.eye(model.N), model.A)
            - np.kron(model.laplacian_p, model.Ap)
            + np.kron(model.laplacian_c, model.B @ K))


@dataclass
class Trajectory:
    """A simulated run: states, per-agent deviation norms, consensus trace."""

    states: np.ndarray       # (T+1, N*n)
    delta_norms: np.ndarray  # (T+1, N)
    xbar: np.ndarray         # (T+1, n)

    @property
    def step_count(self) -> int:
        return self.states.shape[0] - 1


def initial_state(model: LimasModel, seed: int) -> np.ndarray:
    """Seeded initial state, uniform on [0, 10); identical seeds give identical states."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 10.0, size=model.N * model.n)


def simulate(model: LimasModel, K, x0, steps: int) -> Trajectory:
    """Iterate the stacked closed loop for ``steps`` updates.

    Raises Overflow (with the offending step) as soon as any state entry
    exceeds OVERFLOW_GUARD in magnitude, which signals an unstable loop.
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
    states = np.empty((steps + 1, x.size))
    for t in range(steps + 1):
        if float(np.max(np.abs(x))) > OVERFLOW_GUARD:
            raise Overflow(t)
        states[t] = x
        if t < steps:
            x = M @ x

    blocks = states.reshape(steps + 1, model.N, model.n)
    xbar = blocks.mean(axis=1)
    delta_norms = np.linalg.norm(blocks - xbar[:, None, :], axis=2)
    return Trajectory(states, delta_norms, xbar)


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
    over the tail half of the run. The settling step is the first whose
    worst agent deviation is below SETTLING_THRESHOLD. Steps whose
    deviation sits below DEVIATION_FLOOR_RTOL of the state norm are treated
    as numerically settled and excluded from the fit (a loop whose consensus
    trajectory grows leaves only cancellation noise there).
    """
    total = np.linalg.norm(traj.delta_norms, axis=1)
    T = total.size - 1
    if T < 10:
        raise ValueError("need at least 10 steps to fit a decay rate")

    settling_step = None
    below = np.nonzero(traj.delta_norms.max(axis=1) < SETTLING_THRESHOLD)[0]
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
    return ConvergenceMetrics(rate, settling_step, slope >= FLAT_SLOPE)
