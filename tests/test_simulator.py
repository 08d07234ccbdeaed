"""Unit tests for closed-loop assembly, simulation and convergence metrics."""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

from limas import (
    LimasModel,
    Trajectory,
    WeightedGraph,
    analyze,
    closed_loop_matrix,
    convergence_metrics,
    initial_state,
    modal_radii,
    simulate,
)
from limas.errors import Overflow, ShapeMismatch
from limas.simulator import ConvergenceMetrics, _agent_norms
from conftest import (
    A_SHOWCASE,
    B_SHOWCASE,
    STACKED_SIZE,
    broadcast_agent_norms,
    broadcast_deviation_loop,
    deviation,
    four_agent_model,
    joint_basis,
    kron_closed_loop,
    laplacian_agents,
    modal_deviation_norms,
    random_coupled_model,
    traced_peak_in_loops,
)


def pair_graph(w: float) -> WeightedGraph:
    return WeightedGraph(2, [(0, 1, w)])


def test_closed_loop_two_agents_by_hand():
    a, w, v, k = 1.1, 0.4, 0.7, -0.3
    model = LimasModel([[a]], [[1.0]], pair_graph(w), pair_graph(v), alpha=1.0)
    M = closed_loop_matrix(model, [[k]])
    expected = np.array([[a - a * w + k * v, a * w - k * v],
                         [a * w - k * v, a - a * w + k * v]])
    assert np.allclose(M, expected, atol=1e-12)


def test_closed_loop_decoupled_zero_gain_is_block_diagonal():
    model = four_agent_model(alpha=0.0)
    M = closed_loop_matrix(model, np.zeros((1, 2)))
    assert np.allclose(M, np.kron(np.eye(4), model.A), atol=0.0)


def test_closed_loop_congruence_with_modal_radii(showcase_model):
    # rotating by the joint basis block-diagonalizes the deviation dynamics
    spec = showcase_model.joint_spectrum
    report = analyze(showcase_model)
    K = np.array([report.gain])
    M = closed_loop_matrix(showcase_model, K)
    phi = joint_basis(spec, showcase_model.laplacian_p, showcase_model.laplacian_c)
    T = np.kron(phi, np.eye(showcase_model.n))
    rotated = T.T @ M @ T
    block = rotated[showcase_model.n:, showcase_model.n:]
    rho = np.max(np.abs(np.linalg.eigvals(block)))
    assert rho == pytest.approx(max(report.modal_radii), abs=1e-8)


def test_deviation_examples():
    assert np.allclose(deviation(np.tile([2.0, -1.0], 4), 4, 2), 0.0, atol=0.0)
    assert np.allclose(deviation([3.0, 1.0], 2, 1), [1.0, -1.0], atol=0.0)
    with pytest.raises(ShapeMismatch):
        deviation([1.0, 2.0, 3.0], 2, 2)


def test_deviation_matches_projection_form():
    rng = np.random.default_rng(19)
    for _ in range(20):
        N, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        x = rng.standard_normal(N * n)
        proj = np.kron(np.eye(N) - np.ones((N, N)) / N, np.eye(n))
        assert np.allclose(deviation(x, N, n), proj @ x, atol=1e-12)


def test_deviation_idempotent_and_shift_invariant():
    rng = np.random.default_rng(21)
    for _ in range(20):
        N, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        x = rng.standard_normal(N * n)
        c = rng.standard_normal(n)
        d = deviation(x, N, n)
        assert np.allclose(deviation(d, N, n), d, atol=1e-12)
        assert np.allclose(deviation(x + np.tile(c, N), N, n), d, atol=1e-12)


def test_simulate_stable_decoupled_converges():
    model = LimasModel([[0.5, 0.1], [0.0, 0.6]], [[0.0], [1.0]],
                       four_agent_model().gp, four_agent_model().gc, alpha=0.0)
    x0 = initial_state(model, 1)
    traj = simulate(model, np.zeros((1, 2)), x0, 80)
    assert traj.delta_norms[-1].max() < 1e-12
    assert convergence_metrics(traj).rate < 1.0


def test_simulate_showcase_settles(showcase_model):
    report = analyze(showcase_model)
    K = np.array([report.gain])
    x0 = initial_state(showcase_model, 42)
    assert x0.min() >= 0.0 and x0.max() <= 10.0
    traj = simulate(showcase_model, K, x0, 300)
    metrics = convergence_metrics(traj)
    assert metrics.settling_step is not None and metrics.settling_step <= 300
    # the deviation decays no slower than the worst mode predicts
    rho = max(report.modal_radii)
    d0 = np.linalg.norm(traj.delta_norms[0])
    predicted = next(t for t in range(301) if d0 * rho**t < 1e-3)
    assert metrics.settling_step <= predicted + 50


def test_simulate_consensus_initial_state_stays_at_zero_deviation():
    model = four_agent_model()
    x0 = np.tile([4.0, -2.0], 4)  # every agent starts at the same state
    traj = simulate(model, [[0.0, -0.3412]], x0, 30)
    assert np.array_equal(traj.delta_norms, np.zeros((31, 4)))
    # the mean alone follows A
    expected = np.linalg.matrix_power(model.A, 30) @ [4.0, -2.0]
    assert np.allclose(traj.xbar[-1], expected, rtol=1e-12, atol=0.0)


def test_overflow_bound_judges_mean_and_deviation():
    # powers of two are exact, so each run stops at the first step with an
    # entry beyond max / (N n): an entry m 2^e, 0.5 <= m < 1, passes it at
    # step 1024 - e; the step before is still within it and completes
    model = LimasModel([[2.0]], [[1.0]], pair_graph(0.1), pair_graph(1.0), alpha=0.0)
    bound = np.finfo(float).max / 2
    for x0, step in (([5.0, 5.0], 1021), ([1.0, -1.0], 1023)):
        with pytest.raises(Overflow) as err:
            simulate(model, [[0.0]], x0, 1100)
        assert err.value.step == step
        assert str(err.value) == f"state overflow at step {step}"
        # n = 1, so the agent norms are the deviation entries' magnitudes
        traj = simulate(model, [[0.0]], x0, step - 1)
        largest = max(np.abs(traj.xbar[-1]).max(), traj.delta_norms[-1].max())
        assert largest <= bound < 2 * largest


def test_overflow_past_the_bound_names_its_first_step_without_warnings():
    # the mean reaches 1.6e308 at step 5, finite but beyond max / (N n) =
    # max / 4, then inf (step 6) and nan (step 7); the first row beyond the
    # bound is the one reported, and the overflow inside the loop raises no
    # RuntimeWarning
    model = LimasModel([[1e60, 1e60], [1e60, -1e60]], [[0.0], [1.0]],
                       pair_graph(0.1), pair_graph(1.0), alpha=0.0)
    x0 = [1e7, 1e7, 3e7, 3e7]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow) as err:
            simulate(model, [[0.0, 0.0]], x0, 10)
        traj = simulate(model, [[0.0, 0.0]], x0, 4)
    assert err.value.step == 5
    assert np.isfinite(traj.xbar).all() and np.isfinite(traj.delta_norms).all()


def test_simulate_unstable_overflows():
    # growth is not an overflow: within the float range the run completes and
    # the decay fit judges it; the mean 3 = 0.75 * 2^2 and the deviations
    # +-2 pass max / (N n) at step 1024 - 2
    model = LimasModel([[2.0]], [[1.0]], pair_graph(0.1), pair_graph(1.0),
                       alpha=0.0)
    traj = simulate(model, [[0.0]], [5.0, 1.0], 500)
    assert traj.xbar[-1, 0] == 3.0 * 2.0 ** 500
    assert traj.delta_norms[-1].tolist() == [2.0 ** 501] * 2
    metrics = convergence_metrics(traj)
    assert metrics.no_decay and metrics.rate == pytest.approx(2.0)
    with pytest.raises(Overflow) as err:
        simulate(model, [[0.0]], [5.0, 1.0], 1100)
    assert err.value.step == 1022


@pytest.mark.parametrize("steps", range(1014, 1024))
def test_simulate_at_the_bound_warns_nothing_and_stops_at_one_step(steps):
    # N = 64 agents that double, one state each: the mean and the deviations
    # stay finite up to the bound max / (N n), and so do the norms, the
    # per-step totals and the fit; every run completes or stops at step 1016
    N = 64
    model = LimasModel([[2.0]], [[1.0]], WeightedGraph(N, []),
                       WeightedGraph(N, [(i, (i + 1) % N, 1.0) for i in range(N)]),
                       alpha=0.0)
    x0 = initial_state(model, 42)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            traj = simulate(model, [[0.0]], x0, steps)
        except Overflow as err:
            assert (err.step, steps >= 1016) == (1016, True)
        else:
            assert convergence_metrics(traj).no_decay
            assert steps < 1016


def _relative_step_error(delta_norms: np.ndarray, reference: np.ndarray) -> float:
    """Largest per-step error relative to the step's largest reference norm."""
    return float((np.abs(delta_norms - reference).max(axis=1)
                  / reference.max(axis=1)).max())


def test_simulate_first_transformed_block_stays_zero():
    # the modal reference keeps the consensus block at zero and iterates the
    # other blocks alone; the simulated deviations follow it at every step,
    # also where A, the gain or both leave the loop unstable
    rng = np.random.default_rng(31)
    for _ in range(12):
        model = random_coupled_model(rng)
        K = rng.uniform(-0.5, 0.5, (1, model.n))
        x0 = rng.uniform(0.0, 10.0, model.N * model.n)
        traj = simulate(model, K, x0, 80)
        reference = modal_deviation_norms(model, K, x0, 80)
        assert _relative_step_error(traj.delta_norms, reference) <= 1e-10


def test_simulate_showcase_tracks_modal_reference(showcase_model):
    # eig A = {1, 1.5}: the mean grows like 1.5^t while the deviations decay at
    # the certified radius, and neither is lost in the other
    report = analyze(showcase_model)
    K = np.array([report.gain])
    x0 = initial_state(showcase_model, 42)
    traj = simulate(showcase_model, K, x0, 300)
    reference = modal_deviation_norms(showcase_model, K, x0, 300)
    assert _relative_step_error(traj.delta_norms, reference) <= 1e-10
    rate = convergence_metrics(traj).rate
    assert rate == pytest.approx(max(report.modal_radii), abs=1e-6)
    assert traj.delta_norms[100].max() < 1e-30


def test_simulate_matches_direct_deviation_iteration():
    rng = np.random.default_rng(29)
    for _ in range(5):
        model = random_coupled_model(rng, N=4, n=2, alpha_scale=0.1)
        # keep the loop stable: scale A down and close with zero gain
        model = LimasModel(0.5 * model.A / max(np.max(np.abs(np.linalg.eigvals(model.A))), 0.1),
                           model.B, model.gp, model.gc, alpha=model.alpha)
        K = np.zeros((1, 2))
        x0 = rng.uniform(0.0, 10.0, 8)
        traj = simulate(model, K, x0, 200)
        M = closed_loop_matrix(model, K)
        x, delta = x0, deviation(x0, 4, 2)
        for t in range(201):
            assert np.abs(traj.delta_norms[t]
                          - np.linalg.norm(delta.reshape(4, 2), axis=1)).max() <= 1e-9
            assert np.abs(traj.xbar[t] - x.reshape(4, 2).mean(axis=0)).max() <= 1e-9
            x, delta = M @ x, M @ delta


def test_convergence_metrics_pure_geometric():
    norms = 0.5 ** np.arange(41.0)
    traj = Trajectory(delta_norms=np.outer(norms, np.ones(2)),
                      xbar=np.zeros((41, 2)))
    metrics = convergence_metrics(traj)
    assert metrics.rate == pytest.approx(0.5, abs=1e-6)
    assert not metrics.no_decay
    assert metrics.settling_step == 10  # 0.5^10 < 1e-3


def test_convergence_metrics_showcase_rate(showcase_model):
    report = analyze(showcase_model)
    K = np.array([report.gain])
    x0 = initial_state(showcase_model, 42)
    traj = simulate(showcase_model, K, x0, 20)
    metrics = convergence_metrics(traj)
    assert metrics.rate == pytest.approx(max(report.modal_radii), abs=0.05)


def test_convergence_metrics_constant_deviation_flags_no_decay():
    traj = Trajectory(delta_norms=np.full((31, 2), 0.7),
                      xbar=np.zeros((31, 2)))
    metrics = convergence_metrics(traj)
    assert metrics.no_decay
    assert metrics.settling_step is None


def test_convergence_metrics_needs_ten_steps():
    traj = Trajectory(delta_norms=np.ones((5, 2)),
                      xbar=np.zeros((5, 1)))
    with pytest.raises(ValueError):
        convergence_metrics(traj)


def test_convergence_metrics_from_a_consensus_state(showcase_model):
    # every agent starts at the same state: the deviation is exactly zero throughout
    x0 = np.tile([1.0, 2.0], showcase_model.N)
    traj = simulate(showcase_model, [[0.1, 0.2]], x0, 20)
    assert not traj.delta_norms.any()
    assert convergence_metrics(traj) == ConvergenceMetrics(0.0, 0, False)


def test_simulate_input_checks(showcase_model):
    K = [[0.1, 0.2]]
    x0 = initial_state(showcase_model, 1)
    with pytest.raises(ValueError, match="^steps must be >= 1, got 0$"):
        simulate(showcase_model, K, x0, 0)
    with pytest.raises(ShapeMismatch, match="^x0 length 3 does not match N\\*n = 8$"):
        simulate(showcase_model, K, x0[:3], 10)
    x0[5] = np.nan
    with pytest.raises(ValueError, match="^x0 contains non-finite entries$"):
        simulate(showcase_model, K, x0, 10)


def test_initial_state_reproducible(showcase_model):
    a = initial_state(showcase_model, 123)
    b = initial_state(showcase_model, 123)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, initial_state(showcase_model, 124))


def _summaries_loop_reference(model: LimasModel, K, x0, steps: int):
    """Per-step mean of the stacked iteration x+ = Mx and its size max|x|, and
    the deviation norms of the centred iteration d+ = M d - mean(M d)."""
    N, n = model.N, model.n
    M = kron_closed_loop(model, K)
    xbar, scale = np.empty((steps + 1, n)), np.empty(steps + 1)
    delta_norms = np.empty((steps + 1, N))
    x, d = x0, deviation(x0, N, n)
    for t in range(steps + 1):
        xbar[t] = x.reshape(N, n).mean(axis=0)
        scale[t] = np.abs(x).max()
        delta_norms[t] = np.linalg.norm(d.reshape(N, n), axis=1)
        x, d = M @ x, deviation(M @ d, N, n)
    return xbar, scale, delta_norms


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("N", [2, 5, 17])
def test_simulate_summaries_match_loop_reference(N, n):
    rng = np.random.default_rng(1000 * N + n)
    for _ in range(3):
        model = random_coupled_model(rng, N=N, n=n)
        K = rng.uniform(-0.5, 0.5, (1, n))
        x0 = rng.uniform(-10.0, 10.0, N * n)
        traj = simulate(model, K, x0, 60)
        xbar, scale, delta_norms = _summaries_loop_reference(model, K, x0, 60)
        # the stacked mean is exact up to rounding on the state's scale
        assert np.all(np.abs(traj.xbar - xbar).max(axis=1) <= 1e-12 * scale)
        assert _relative_step_error(traj.delta_norms, delta_norms) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 127, 128, 129, 136, 300])
def test_agent_norms_sum_in_the_order_of_numpy(n):
    # below eight components the squares are summed one component at a time,
    # in index order, numpy's order there; from eight on by numpy's own norm,
    # with its blocks of eight and, past 128 terms, its halves
    rng = np.random.default_rng(n)
    deviations = rng.choice([-1.0, 1.0], (6, 3 * n)) * np.exp(rng.uniform(-40.0, 40.0, (6, 3 * n)))
    norms = _agent_norms(deviations.reshape(6, 3, n))
    assert norms.tobytes() == broadcast_agent_norms(deviations, 3, n).tobytes()


def _paired_state(rng, N: int, n: int, scales) -> np.ndarray:
    """Agent 0 at zero and the others in adjacent pairs +p, -p (the last agent
    at zero when N is even): the mean is exactly zero, so agent 0 starts at
    exactly zero deviation. Pair k has entries of size scales[k % len(scales)]."""
    x = np.zeros((N, n))
    for k, i in enumerate(range(1, N - 1, 2)):
        p = scales[k % len(scales)] * rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        x[i], x[i + 1] = p, -p
    return x.ravel()


@pytest.mark.parametrize("N, n", [*itertools.product([2, 5, 17], [1, 2, 3, 4, 7, 8, 9]),
                                  (STACKED_SIZE // 2, 2), (STACKED_SIZE + 1, 1)])
def test_simulate_matches_the_broadcast_passes_bit_for_bit(N, n):
    # the consensus shift and the power-of-two scaled per-agent norms give the
    # bytes of the broadcast expressions, sign bits included; numpy sums up to
    # seven terms in order and from n = 8 on pairwise. States
    # near 1e-160 would underflow when squared unscaled, and near 1e160
    # would overflow. The largest stacked loop at n = 2 keeps these bytes, and
    # so does a larger one at n = 1, which never steps through the Laplacians
    rng = np.random.default_rng([N, n, 7])
    steps = 12
    for _ in range(2):
        model = random_coupled_model(rng, N=N, n=n, alpha_scale=0.1)
        K = rng.uniform(-0.2, 0.2, (1, n))
        D = broadcast_deviation_loop(model, K)
        states = [_paired_state(rng, N, n, (1e-160,)), _paired_state(rng, N, n, (1e160,)),
                  _paired_state(rng, N, n, (1e-160, 1e160, 1.0)),
                  rng.uniform(-1.0, 1.0, N * n) * 1e-160 + 1e-150]
        for x0 in states:
            traj = simulate(model, K, x0, steps)
            mean = x0.reshape(N, n).mean(axis=0)
            d = (x0.reshape(N, n) - mean).ravel()
            xbar, deviations = np.empty((steps + 1, n)), np.empty((steps + 1, N * n))
            xbar[0], deviations[0] = mean, d
            for t in range(1, steps + 1):
                d, mean = D @ d, model.A @ mean
                xbar[t], deviations[t] = mean, d
            assert traj.xbar.tobytes() == xbar.tobytes()
            assert traj.delta_norms.tobytes() == broadcast_agent_norms(deviations, N, n).tobytes()


@pytest.mark.parametrize("commuting", [True, False])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_laplacian_steps_match_the_references(n, commuting):
    # beyond STACKED_LOOP_BYTES the deviations step through Lp and Lc; they
    # follow the stacked iteration, and on commuting graphs the modal one,
    # within 1e-10 of each step's largest norm, and the mean keeps its bits
    rng = np.random.default_rng([n, commuting])
    N = laplacian_agents(n)
    model = random_coupled_model(rng, N=N, n=n, commuting=commuting)
    K = rng.uniform(-0.5, 0.5, (1, n))
    x0 = rng.uniform(-10.0, 10.0, N * n)
    traj = simulate(model, K, x0, 40)
    xbar, scale, delta_norms = _summaries_loop_reference(model, K, x0, 40)
    assert np.all(np.abs(traj.xbar - xbar).max(axis=1) <= 1e-12 * scale)
    assert _relative_step_error(traj.delta_norms, delta_norms) <= 1e-10
    if commuting:
        reference = modal_deviation_norms(model, K, x0, 40)
        assert _relative_step_error(traj.delta_norms, reference) <= 1e-10
    mean = x0.reshape(N, n).mean(axis=0)
    for t in range(41):
        assert traj.xbar[t].tobytes() == mean.tobytes()
        mean = model.A @ mean


def test_laplacian_steps_keep_the_deviations_apart_from_a_growing_mean():
    # the showcase plant on a cycle and a complete graph, with the gain that
    # places A + B K0 at 0.1 and 0.2 on every mode: the mean grows like
    # 1.5^t while the deviations decay, and the consensus shift keeps the
    # rounding that leaks into the mean out of them
    N = laplacian_agents(2)
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, WeightedGraph.cycle(N, 0.1),
                       WeightedGraph.complete(N), alpha=0.3)
    K = np.array([[-0.36, -2.2]]) / N
    assert max(modal_radii(model, K)) < 0.5
    x0 = initial_state(model, 42)
    traj = simulate(model, K, x0, 300)
    reference = modal_deviation_norms(model, K, x0, 300)
    assert _relative_step_error(traj.delta_norms, reference) <= 1e-10
    assert traj.delta_norms[-1].max() < 1e-80 and np.abs(traj.xbar[-1]).max() > 1e50


@pytest.mark.parametrize("n", [2, 3, 4])
def test_laplacian_steps_overflow_where_the_stacked_loop_does(n):
    # A = 3 I plus a little, small coupling and gain: every deviation mode
    # grows at least twice per step, so the step at which the stacked
    # iteration first has an entry beyond max / (N n) is the one reported;
    # the agents start in pairs +p, -p, so the mean is exactly zero throughout
    rng = np.random.default_rng(n)
    N = laplacian_agents(n)
    model = random_coupled_model(rng, N=N, n=n, alpha_scale=0.002)
    model = LimasModel(3.0 * np.eye(n) + 0.1 * model.A, model.B, model.gp, model.gc,
                       alpha=model.alpha)
    K = rng.uniform(-1e-3, 1e-3, (1, n))
    x0 = _paired_state(rng, N, n, (1.0,))
    M = closed_loop_matrix(model, K)
    bound = np.finfo(float).max / (N * n)
    d, largest = x0, [np.abs(x0).max()]
    while largest[-1] <= bound:
        d = deviation(M @ d, N, n)
        largest.append(np.abs(d).max())
    step = len(largest) - 1
    assert min(b / a for a, b in itertools.pairwise(largest)) >= 2.0
    # no rounding of the two paths can move the crossing by a step
    assert largest[-2] < (1.0 - 1e-6) * bound and largest[-1] > (1.0 + 1e-6) * bound
    with pytest.raises(Overflow) as err:
        simulate(model, K, x0, step + 20)
    assert err.value.step == step
    assert not simulate(model, K, x0, step - 1).xbar.any()


def test_laplacian_steps_check_their_inputs_as_the_stacked_loop_does():
    # the same errors and texts on both sides of STACKED_LOOP_BYTES
    rng = np.random.default_rng(5)
    models = [random_coupled_model(rng, N=N, n=2) for N in (5, laplacian_agents(2))]
    for model in models:
        x0 = initial_state(model, 1)
        Nn = model.N * model.n
        with pytest.raises(ShapeMismatch, match="^K must have 2 columns, got 3$"):
            simulate(model, [[0.1, 0.2, 0.3]], x0, 10)
        with pytest.raises(ShapeMismatch, match="^K must have 1 rows, got 2$"):
            simulate(model, [[0.1, 0.2], [0.3, 0.4]], x0, 10)
        with pytest.raises(ValueError, match="^K contains non-finite entries$"):
            simulate(model, [[0.1, np.inf]], x0, 10)
        with pytest.raises(ShapeMismatch,
                           match=f"^x0 length {Nn - 1} does not match N\\*n = {Nn}$"):
            simulate(model, [[0.1, 0.2]], x0[1:], 10)
        x0[3] = np.nan
        with pytest.raises(ValueError, match="^x0 contains non-finite entries$"):
            simulate(model, [[0.1, 0.2]], x0, 10)


def _ten_steps(model: LimasModel, K) -> Trajectory:
    return simulate(model, K, initial_state(model, 1), 10)


@pytest.mark.parametrize("N, n", [(laplacian_agents(2), 2), (256, 2), (laplacian_agents(4), 4)])
def test_laplacian_steps_hold_less_than_one_stacked_loop(N, n):
    # beyond STACKED_LOOP_BYTES simulate keeps [Lp | Lc], 2 / n^2 of a loop,
    # and (N, n) arrays; it never forms the (N n)^2 loop
    assert traced_peak_in_loops(_ten_steps, N, n) < 1.0


def test_the_largest_stacked_loop_is_formed():
    # at and below STACKED_LOOP_BYTES simulate steps through the stacked loop
    assert traced_peak_in_loops(_ten_steps, STACKED_SIZE // 2, 2) >= 1.0
