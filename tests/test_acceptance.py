"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one line per
criterion; each test additionally prints ``<id> PASS`` once its assertions
have all held.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from limas import (
    LimasModel,
    analyze,
    convergence_metrics,
    initial_state,
    modal_radii,
    scalar_check,
    simulate,
    solve_mare,
    sufficient_check,
    verify_gain,
)
from limas.errors import Divergence
from limas.linalg import eig_sym
from conftest import (
    commuting_graph_pair,
    deviation,
    exact_stabilizing_interval,
    four_agent_model,
    modal_deviation_norms,
    ones_completion,
    random_scalar_instance,
    unit_scalar_model,
)


def _report(tag: str) -> None:
    print(f"{tag} PASS")


def test_A1_showcase_reproduction():
    start = time.perf_counter()
    model = four_agent_model()
    report = analyze(model)

    assert np.allclose(sorted(report.lambda_p), [0.0, 0.2, 0.2, 0.4], atol=1e-9)
    assert np.allclose(sorted(report.lambda_c), [0.0, 4.0, 4.0, 4.0], atol=1e-9)
    assert report.assumption_commuting.holds
    assert report.assumption_controllability.holds
    assert report.assumption_coupling.holds
    assert report.sufficient is not None and report.sufficient.holds
    assert report.necessary is not None and report.necessary.holds
    assert report.necessary.gamma_c == pytest.approx(1.0, abs=1e-9)
    assert report.gain is not None
    assert max(report.modal_radii) < 1.0

    x0 = initial_state(model, seed=42)
    assert np.all((x0 >= 0.0) & (x0 <= 10.0)) and x0.size == 8
    traj = simulate(model, [report.gain], x0, 300)
    metrics = convergence_metrics(traj)
    assert metrics.settling_step is not None and metrics.settling_step <= 300

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("A1")


def test_A2_critical_margin_value():
    # the showcase's alpha_max is 0.94
    assert sufficient_check(four_agent_model()).sigma_c == pytest.approx(0.49697, abs=1e-4)
    _report("A2")


def test_A3_mare_scalar_threshold():
    for sigma in (0.76, 0.8, 0.9):
        start = time.perf_counter()
        sol = solve_mare([[2.0]], [[1.0]], sigma)
        assert time.perf_counter() - start < 0.1
        assert sol.P[0, 0] > 0.0
    for sigma in (0.6, 0.7, 0.74):
        start = time.perf_counter()
        with pytest.raises(Divergence):
            solve_mare([[2.0]], [[1.0]], sigma)
        assert time.perf_counter() - start < 0.1
    _report("A3")


def _interior_points(lo: float, hi: float, count: int = 100) -> np.ndarray:
    return np.linspace(lo, hi, count + 2)[1:-1]


def _scalar_instances(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [unit_scalar_model(*random_scalar_instance(rng)) for _ in range(count)]


def test_A4_scalar_sufficiency_property():
    start = time.perf_counter()
    instances = _scalar_instances(2024, 200)
    conditioned = 0
    for model in instances:
        a, Lp, Lc = model.A.item(), model.laplacian_p, model.laplacian_c
        res = scalar_check(model)
        intervals = []
        if res.c1:
            intervals.append((max(res.k_plus[0], 0.0), res.k_plus[1]))
        if res.c2:
            intervals.append((res.k_minus[0], min(res.k_minus[1], 0.0)))
        if not intervals:
            continue
        conditioned += 1
        N = Lp.shape[0]
        psi = ones_completion(N)
        W = psi[:, 1:]
        base = W.T @ (a * np.eye(N) - Lp) @ W
        step = W.T @ Lc @ W
        for lo, hi in intervals:
            ks = _interior_points(lo, hi)
            stacked = base[None] + ks[:, None, None] * step[None]
            radii = np.max(np.abs(np.linalg.eigvalsh(stacked)), axis=1)
            assert np.all(radii < 1.0 - 1e-10)
    elapsed = time.perf_counter() - start
    assert conditioned >= 30
    assert elapsed < 30.0
    _report(f"A4 ({conditioned} conditioned instances, {elapsed:.1f}s)")


def test_A5_scalar_necessity_property():
    instances = _scalar_instances(2024, 200)
    # adversarial batch: heavier physical weights push the mode spread up
    rng = np.random.default_rng(777)
    for _ in range(50):
        instances.append(unit_scalar_model(*random_scalar_instance(rng, w_hi=2.5)))
    spreads = [model.spectrum_p[-1] - model.spectrum_p[1] for model in instances[200:]]
    assert max(spreads) > 2.0

    checked = 0
    for model in instances:
        k_lo, k_hi = exact_stabilizing_interval(model.A.item(), model.laplacian_p,
                                                model.laplacian_c)
        if k_lo >= k_hi:
            continue
        checked += 1
        assert scalar_check(model).necessary
    assert checked >= 50
    _report(f"A5 ({checked} stabilizable instances, 0 counterexamples)")


def test_A6_block_diagonalization_equivalence():
    rng = np.random.default_rng(4242)
    for _ in range(50):
        N = int(rng.integers(3, 7))
        n = int(rng.integers(1, 4))
        gp, gc = commuting_graph_pair(rng, N)
        A = rng.uniform(-1.0, 1.0, (n, n))
        Ap = rng.uniform(-0.5, 0.5, (n, n))
        B = rng.uniform(-1.0, 1.0, (n, 1))
        model = LimasModel(A, B, gp, gc, Ap=Ap)
        K = rng.uniform(-1.0, 1.0, (1, n))
        full = verify_gain(model, K).max_radius
        per_mode = float(modal_radii(model, K).max())
        assert full == pytest.approx(per_mode, abs=1e-8)
    _report("A6")


def test_A7_simulator_identities():
    rng = np.random.default_rng(99)
    from limas import closed_loop_matrix

    for _ in range(10):
        N = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        gp, gc = commuting_graph_pair(rng, N)
        A = rng.uniform(-1.0, 1.0, (n, n))
        rho = max(float(np.max(np.abs(np.linalg.eigvals(A)))), 0.05)
        A *= rng.uniform(0.2, 0.6) / rho
        model = LimasModel(A, rng.uniform(-1, 1, (n, 1)), gp, gc,
                           alpha=float(rng.uniform(-0.05, 0.05)))
        K = np.zeros((1, n))
        assert verify_gain(model, K).stable  # randomized loop is Schur by scaling

        x0 = rng.uniform(0.0, 10.0, N * n)
        traj = simulate(model, K, x0, 200)

        # projection idempotence and shift invariance
        d0 = deviation(x0, N, n)
        assert np.allclose(deviation(d0, N, n), d0, atol=1e-12)
        shift = np.tile(rng.standard_normal(n), N)
        assert np.allclose(deviation(x0 + shift, N, n), d0, atol=1e-12)

        # the mean follows the stacked iteration and the deviations the
        # centred one, both built here
        M = closed_loop_matrix(model, K)
        x, delta = x0, d0
        for t in range(201):
            assert np.abs(traj.xbar[t] - x.reshape(N, n).mean(axis=0)).max() <= 1e-9
            assert np.abs(traj.delta_norms[t]
                          - np.linalg.norm(delta.reshape(N, n), axis=1)).max() <= 1e-9
            x, delta = M @ x, M @ delta

        # the consensus block of the joint basis never enters the deviations
        reference = modal_deviation_norms(model, K, x0, 200)
        assert np.all(np.abs(traj.delta_norms - reference).max(axis=1)
                      <= 1e-10 * reference.max(axis=1))
    _report("A7")


def test_A8_hermitian_sum_eigenvalue_bounds():
    rng = np.random.default_rng(864)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        X = rng.uniform(-5.0, 5.0, (n, n))
        Y = rng.uniform(-5.0, 5.0, (n, n))
        X, Y = (X + X.T) / 2, (Y + Y.T) / 2
        ex, ey = eig_sym(X), eig_sym(Y)
        es = eig_sym(X + Y)
        assert es[-1] <= ex[-1] + ey[-1] + 1e-9
        assert es[0] >= ex[0] + ey[0] - 1e-9
    _report("A8")
