"""Unit and property tests for the consensusability analysis core."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import re

import numpy as np
import pytest

from limas import (
    LimasModel,
    WeightedGraph,
    analyze,
    laplacian,
    modal_radii,
    necessary_check,
    scalar_check,
    solve_mare,
    sufficient_check,
)
from limas import analysis, graphs, verify_gain
from limas.analysis import CONNECTIVITY_FLOOR, COUPLING_RTOL
from limas.errors import (
    AssumptionViolated,
    Divergence,
    NoConvergence,
    NotCommuting,
    NotControllable,
    NotScalar,
    ShapeMismatch,
)
from limas.linalg import eig_general
from limas.model_io import load_model, model_from_dict
from conftest import (
    A_SHOWCASE,
    B_SHOWCASE,
    ROUNDING_FUZZ,
    _non_commuting_graphs,
    cycle4_graph,
    fixed_point_mare,
    exact_schur_verdict,
    exact_stabilizing_interval,
    four_agent_model,
    jury_lp_margin,
    laplacian_model,
    mare_inequality_margin,
    overflowing_modes_model,
    random_connected_graph,
    random_coupled_model,
    random_input,
    random_scalar_instance,
    random_state_matrix,
    sigma_critical,
    spectral_radius,
    unit_scalar_model,
    verdict_corpus,
)


# --- coupling factors alpha_i = 1 - alpha * lambda_p_i ---------------------

def test_alpha_spectrum_showcase(showcase_model):
    # lambda_p = (0.2, 0.2, 0.4) at alpha = 0.3
    res = sufficient_check(showcase_model)
    assert res.alpha_min == pytest.approx(0.88, abs=1e-12)
    assert res.alpha_max == pytest.approx(0.94, abs=1e-12)


def test_alpha_spectrum_decoupled():
    A = np.array([[0.6, 0.3], [0.0, 0.6]])
    model = LimasModel(A, [[1.0], [1.0]], cycle4_graph(),
                       WeightedGraph.complete(4), alpha=0.0)
    res = sufficient_check(model)
    assert res.alpha_min == res.alpha_max == 1.0


def test_alpha_spectrum_exact_cancellation():
    # lambda_p = 0.2 at alpha = 5: the only coupling factor is exactly 0
    model = LimasModel([[2.0]], [[1.0]],
                       WeightedGraph(2, [(0, 1, 0.1)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=5.0)
    res = sufficient_check(model)
    assert res.alpha_min == res.alpha_max == 0.0


# --- critical Riccati margin ------------------------------------------------

def test_sigma_critical_showcase():
    # 0.94 * A has one eigenvalue outside the unit circle, at 1.41
    assert sigma_critical(A_SHOWCASE, 0.94) == pytest.approx(1 - 1 / 1.41**2, abs=1e-12)


def test_sigma_critical_stable_branch():
    assert sigma_critical(A_SHOWCASE, 0.5) == 0.0  # spectral radius 0.75


def test_sigma_critical_scalar():
    assert sigma_critical([[2.0]], 1.0) == pytest.approx(0.75, abs=1e-12)


def test_sigma_critical_monotone_in_scale():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        values = [sigma_critical(A, c) for c in np.linspace(0.0, 2.0, 21)]
        assert np.all(np.diff(values) >= -1e-12)


# --- sufficient condition ----------------------------------------------------

def test_sufficient_check_showcase_numbers(showcase_model):
    res = sufficient_check(showcase_model)
    assert res.holds
    assert res.lhs == pytest.approx(5.625e-05, rel=1e-6)
    assert res.rhs == pytest.approx(0.0209528, rel=1e-4)
    assert res.sigma_c == pytest.approx(0.497007, abs=1e-5)
    assert res.k_star == pytest.approx(0.2275, rel=1e-9)
    assert np.min(res.sigma_modes) > res.sigma_c


def test_sufficient_check_decoupled_complete():
    A = 0.6 * np.eye(2)
    A[0, 1] = 0.3
    model = LimasModel(A, [[1.0], [1.0]], cycle4_graph(),
                       WeightedGraph.complete(4), alpha=0.0)
    res = sufficient_check(model)
    assert res.holds
    assert res.lhs == pytest.approx(0.0, abs=1e-15)
    assert res.sigma_c == 0.0
    assert res.rhs > 0.0
    # every mode margin clips to 1, so the Riccati solve runs at sigma = 1
    report = analyze(model)
    assert report.verdict == "consensusable"
    assert report.mare_sigma == 1.0


def test_sufficient_check_negative_rhs_fails():
    # strong coupling spread plus a hard instability makes the bound vacuous
    A = np.array([[3.0, 1.0], [0.0, 0.3]])
    model = LimasModel(A, B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), alpha=3.0)
    res = sufficient_check(model)
    assert res.rhs <= 0.0
    assert not res.holds


def test_sufficient_check_degenerate_coupling():
    # alpha * lambda_p = 1 for every mode: all mode matrices vanish.
    # Only scalar dynamics keep the zero mode controllable, so n = 1 here.
    model = LimasModel([[2.0]], [[1.0]],
                       WeightedGraph(2, [(0, 1, 0.1)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=5.0)
    res = sufficient_check(model)
    assert res.holds and res.k_star == 0.0
    # the Riccati gain is K = 0, at sigma = 0 and without a MARE solve
    report = analyze(model)
    assert (report.gain_source, report.gain) == ("riccati", [0.0])
    assert report.mare_sigma == 0.0 and report.mare_iterations is None
    assert max(report.modal_radii) == pytest.approx(0.0, abs=1e-12)


def test_sufficient_check_uncontrollable_mode():
    # Ap = A and a physical mode at exactly 1 zero out the mode dynamics
    model = LimasModel(A_SHOWCASE, B_SHOWCASE,
                       WeightedGraph(2, [(0, 1, 0.5)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=1.0)
    with pytest.raises(AssumptionViolated) as err:
        sufficient_check(model)
    assert err.value.which == 2


def test_sufficient_check_nonproportional_coupling():
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), Ap=[[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(AssumptionViolated) as err:
        sufficient_check(model)
    assert err.value.which == 3


def test_conditions_share_the_connectivity_floor():
    # a path whose middle edge is 1e-13 of the others: connected, but its
    # smallest communication mode lies below CONNECTIVITY_FLOOR times the largest
    weak = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1e-13), (2, 3, 1.0)])
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(), weak, alpha=0.3)
    lam_c = model.joint_spectrum.lambda_c[1:]
    assert lam_c.min() <= CONNECTIVITY_FLOOR * lam_c.max()
    raised = []
    for check in (sufficient_check, necessary_check):
        with pytest.raises(AssumptionViolated) as err:
            check(model)
        raised.append((err.value.which, str(err.value)))
    assert raised[0] == raised[1] and raised[0][0] == 0
    # the floor is checked before proportional coupling
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(), weak,
                       Ap=[[0.0, 1.0], [0.0, 0.0]])
    assert not model.coupling_check[0].holds
    with pytest.raises(AssumptionViolated) as err:
        sufficient_check(model)
    assert err.value.which == 0


@pytest.mark.parametrize("weight", [1e-13, 1e-16])
def test_connectivity_floor_is_free_of_weight_scale(showcase_model, weight):
    # the same plant on a rescaled communication graph: the gain scales by
    # 1/weight and the certified radius stays put
    ref = analyze(showcase_model)
    report = analyze(four_agent_model(gc=WeightedGraph.complete(4, weight)))
    assert report.verdict == "consensusable"
    assert report.certified_radius == pytest.approx(ref.certified_radius, rel=1e-9)


# --- modified Riccati equation -----------------------------------------------

def test_solve_mare_scalar_closed_form():
    # for a = 2, b = 1: P (1 - a^2 + sigma a^2) = 1, so P = 5 at sigma = 0.8
    # and P = 1 at sigma = 1, and the gain -(bPa) / (bPb) = -a / b whatever P is
    for sigma, p in ((0.8, 5.0), (1.0, 1.0)):
        sol = solve_mare([[2.0]], [[1.0]], sigma)
        assert sol.P[0, 0] == pytest.approx(p, rel=1e-7)
        assert sol.K.tolist() == [[-2.0]]


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (-1.5, 0.5), (1.1, -3.0)])
def test_mirrored_start_scalar_closed_form(monkeypatch, a, b):
    # for n = 1 the start mirrors the pole a to p = 1/a (keeps it when
    # |a| < 1), pulls p to modulus at most r = max(0, 2 s^(1/4) - 1),
    # s = (1 - sigma)/(1 - sigma_c), and takes the gain (p - a)/(b sigma): its
    # Stein operator is sigma (a + (p - a)/sigma)^2 + (1 - sigma) a^2. That is
    # below one for every sigma above sigma_c = 1 - 1/a^2, and no gain gets
    # it below one under sigma_c; with the early exit bypassed there (the
    # margin read as 0), solve_mare starts Newton from exactly that gain on
    # both sides of sigma_c, and Newton from the unstable start ends in Divergence
    critical = 1.0 - 1.0 / a ** 2
    starts = []
    start_gain = analysis._start_gain

    def recording(*args):
        K = start_gain(*args)
        starts.append(K.item())
        return K

    def placed(sigma, margin):
        p = 1.0 / a if abs(a) >= 1.0 else a
        r = max(0.0, 2.0 * ((1.0 - sigma) / (1.0 - margin)) ** 0.25 - 1.0)
        return min(abs(p), r) * np.sign(p)

    monkeypatch.setattr(analysis, "_start_gain", recording)
    for sigma in (0.5 * critical, 0.99 * critical, critical + 1e-6, 0.5 + 0.5 * critical, 1.0):
        starts.clear()
        p = placed(sigma, 0.0 if sigma < critical else critical)
        radius = sigma * (a + (p - a) / sigma) ** 2 + (1.0 - sigma) * a * a
        if sigma < critical:
            with monkeypatch.context() as bypass:
                bypass.setattr(analysis, "_critical_margin", lambda values: 0.0)
                with pytest.raises(Divergence):
                    solve_mare([[a]], [[b]], sigma)
            assert radius > 1.0
        else:
            sol = solve_mare([[a]], [[b]], sigma)
            assert sol.K.item() == pytest.approx(-a / b, rel=1e-12)
            assert radius < 1.0
        assert starts == [pytest.approx((p - a) / (b * sigma), rel=1e-12)]


def test_solve_mare_takes_one_spectrum_of_abar(monkeypatch):
    # the critical margin and the start gain read one eigvals of the n x n
    # Abar; every other eigvals call is on an n^2 x n^2 Stein operator
    calls = []
    eigvals = np.linalg.eigvals

    def counting(M):
        calls.append(np.shape(M))
        return eigvals(M)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    solve_mare(A_SHOWCASE, B_SHOWCASE, 0.9)
    assert calls.count((2, 2)) == 1
    assert set(calls) <= {(2, 2), (4, 4)}


@pytest.mark.parametrize("sigma", [0.76, 0.8, 0.9, 1.0])
def test_solve_mare_converges_above_threshold(sigma):
    sol = solve_mare([[2.0]], [[1.0]], sigma)
    assert sol.P[0, 0] > 0.0
    assert mare_inequality_margin([[2.0]], [[1.0]], sigma, sol.P) < 0.0


@pytest.mark.parametrize("sigma", [0.6, 0.7, 0.74])
def test_solve_mare_diverges_below_threshold(sigma):
    with pytest.raises(Divergence):
        solve_mare([[2.0]], [[1.0]], sigma)


def test_solve_mare_lyapunov_case():
    Abar = np.array([[0.5, 0.3], [0.0, 0.4]])
    sol = solve_mare(Abar, B_SHOWCASE, 0.0)
    assert np.min(np.linalg.eigvalsh(sol.P)) > 0.0


def test_solve_mare_input_validation():
    with pytest.raises(ValueError):
        solve_mare([[2.0]], [[1.0]], 1.2)
    with pytest.raises(NotControllable):
        solve_mare(A_SHOWCASE, np.zeros((2, 1)), 0.9)


def _random_mare_instances(seed: int, count: int, where: str):
    """(Abar, B, sigma): n <= 4, A Gaussian x U(0.3, 1.5), B Gaussian.

    ``where`` is "above" for sigma in (sigma_c + 1e-3, 1); "below" for sigma
    in (0, sigma_c), from the instances whose sigma_c exceeds 1e-3; "near"
    for sigma = sigma_c + 10^U(-4, -1) below 1, from the instances whose
    sigma_c is positive.
    """
    rng = np.random.default_rng(seed)
    found = 0
    while found < count:
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n)) * rng.uniform(0.3, 1.5)
        B = rng.standard_normal((n, 1))
        sc = sigma_critical(A, 1.0)
        if where == "above" and sc < 1.0 - 1e-3:
            found += 1
            yield A, B, float(rng.uniform(sc + 1e-3, 1.0))
        elif where == "below" and sc > 1e-3:
            found += 1
            yield A, B, float(rng.uniform(0.0, sc))
        elif where == "near" and sc > 0.0:
            sigma = sc + 10.0 ** float(rng.uniform(-4.0, -1.0))
            if sigma < 1.0:
                found += 1
                yield A, B, sigma


def _relative_riccati_residual(Abar, B, sigma, P) -> float:
    PB = P @ B
    gain_dir = Abar.T @ PB
    image = Abar.T @ P @ Abar - sigma * (gain_dir @ gain_dir.T) / float((B.T @ PB).item()) \
        + np.eye(len(P))
    return float(np.linalg.norm(image - P) / np.linalg.norm(P))


def test_solve_mare_matches_fixed_point_property():
    # Newton solves the MARE to rounding and agrees with the plain fixed
    # point wherever that one converges; its gain is -(B'PB)^-1 B'P Abar of
    # its own P
    eps = np.finfo(float).eps
    compared = 0
    for Abar, B, sigma in _random_mare_instances(5, 200, "above"):
        sol = solve_mare(Abar, B, sigma)
        residual = _relative_riccati_residual(Abar, B, sigma, sol.P)
        assert residual <= 1e-10
        assert sol.residual == pytest.approx(residual, rel=1e-3, abs=1e-15)
        btpb = float((B.T @ sol.P @ B).item())
        gain = -(B.T @ sol.P @ Abar) / btpb
        assert np.linalg.norm(sol.K - gain, 2) <= 4.0 * eps * np.linalg.norm(B, 2) \
            * np.linalg.norm(sol.P, 2) * np.linalg.norm(Abar, 2) / btpb
        try:
            ref = fixed_point_mare(Abar, B, sigma)
        except Divergence:
            continue
        compared += 1
        assert np.linalg.norm(sol.P - ref.P) <= 1e-6 * np.linalg.norm(ref.P)
        assert np.linalg.norm(sol.K - ref.K) <= 1e-6 * np.linalg.norm(ref.K)
    assert compared >= 150


def test_solve_mare_near_critical_property():
    # just above sigma_c the start is barely stabilizing; Newton must still
    # get the stabilizing solution
    for Abar, B, sigma in _random_mare_instances(7, 200, "near"):
        sol = solve_mare(Abar, B, sigma)
        assert _relative_riccati_residual(Abar, B, sigma, sol.P) <= 1e-10
        PB = sol.P @ B
        F = Abar - B @ (PB.T @ Abar) / float((B.T @ PB).item())
        stein = sigma * np.kron(F.T, F.T) + (1.0 - sigma) * np.kron(Abar.T, Abar.T)
        assert spectral_radius(stein) < 1.0


def _near_critical_sweep(count: int):
    """(Abar, B, sigma): n 2-6, A Gaussian x U(0.5, 2), B Gaussian, and
    sigma = sigma_c + (1 - sigma_c) 10^U(-6, 0), drawn in that order."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n)) * rng.uniform(0.5, 2.0)
        B = rng.standard_normal((n, 1))
        sc = sigma_critical(A, 1.0)
        yield A, B, sc + (1.0 - sc) * 10.0 ** float(rng.uniform(-6.0, 0.0))


def _mare_outcome(Abar, B, sigma, **kwargs):
    """solve_mare's P, K, residual and solve count, or its Divergence text and count."""
    try:
        sol = solve_mare(Abar, B, sigma, **kwargs)
    except Divergence as exc:
        return str(exc), exc.iterations
    return sol.P.tobytes(), sol.K.tobytes(), sol.residual, sol.iterations


def _assert_spectrum_is_shared(Abar, B, sigma):
    spectrum = eig_general(Abar)
    assert _mare_outcome(Abar, B, sigma, spectrum=spectrum) == _mare_outcome(Abar, B, sigma)


def test_solve_mare_takes_the_spectrum_it_would_compute(tmp_path, workloads):
    # a spectrum passed in is the one solve_mare computes without it, so the
    # outcome is the same bit for bit: on the near-critical benchmark models
    # of seeds 1-3, at the sigma analyze solves them at and with the spectrum
    # sufficient_check kept; on the showcase plant at sigmas below, at and
    # above its critical margin; and on the first sweep plants
    for seed in (1, 2, 3):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        for case in workloads.build("riccati-near-critical", seed, workdir)[0]:
            model = load_model(case.model)
            suff = sufficient_check(model)
            Abar = suff.alpha_max * model.A
            sigma = float(np.clip(np.min(suff.sigma_modes), 0.0, 1.0))
            assert suff.spectrum.tobytes() == eig_general(Abar).tobytes()
            _assert_spectrum_is_shared(Abar, model.B, sigma)
    critical = sigma_critical(A_SHOWCASE, 1.0)
    for sigma in (0.0, critical / 2.0, critical, critical * (1.0 + 1e-13),
                  (1.0 + critical) / 2.0, 0.9, 1.0):
        _assert_spectrum_is_shared(A_SHOWCASE, B_SHOWCASE, sigma)
    for Abar, B, sigma in _near_critical_sweep(300):
        _assert_spectrum_is_shared(Abar, B, sigma)


# Sweep plants (by draw index) on which solve_mare raises Divergence: Newton
# loses B'PB > 0 from both starts, after 2 and 6 Stein solves in all. A
# stabilizing solution exists, so this tuple may only shrink.
SWEEP_DIVERGED_PLANTS = (790, 1251)
# Sweep plants (n = 5 or 6, sigma - sigma_c from 8e-11 to 2e-7) whose
# relative Newton step at the solution is rounding noise of 1e-6 to 1e-4
# while the relative Riccati residual is at rounding; each converges in 3
# or 4 Stein solves.
SWEEP_NOISY_STEP_PLANTS = (362, 563, 1353, 1432)
# Sweep plants (n = 5 or 6, sigma - sigma_c from 2e-9 to 3e-7) whose start
# has a Stein operator of spectral radius 0.997 to 1.000001 by rounding;
# Newton converges from it in 3 or 4 Stein solves all the same.
SWEEP_EDGE_START_PLANTS = (1003, 1066, 1404, 1418, 1469)


def _assert_stabilizing_solution(Abar, B, sigma, sol):
    assert _relative_riccati_residual(Abar, B, sigma, sol.P) <= 1e-10
    F = Abar + B @ sol.K
    stein = sigma * np.kron(F.T, F.T) + (1.0 - sigma) * np.kron(Abar.T, Abar.T)
    assert spectral_radius(stein) < 1.0


def test_solve_mare_near_critical_sweep():
    # a stabilizing solution exists for every sigma above sigma_c, so each
    # Divergence here is a solver failure; every returned solution is the
    # stabilizing one, and the whole sweep stays within 5 000 Stein solves
    diverged, solves = [], 0
    for index, (Abar, B, sigma) in enumerate(_near_critical_sweep(1500)):
        try:
            sol = solve_mare(Abar, B, sigma)
        except Divergence as exc:
            diverged.append(index)
            solves += exc.iterations
            continue
        solves += sol.iterations
        _assert_stabilizing_solution(Abar, B, sigma, sol)
        if index in SWEEP_NOISY_STEP_PLANTS + SWEEP_EDGE_START_PLANTS:
            assert sol.iterations <= 4, f"sweep plant {index} took {sol.iterations} solves"
    assert tuple(diverged) == SWEEP_DIVERGED_PLANTS
    assert solves <= 5000


# Draws of the harsh generator below, as (seed, draw index) with the plant
# written out: n = 4 and sigma - sigma_c at 1.5e-5 and 1.1e-6 of sigma. A
# Riccati solve that does not gate the gain it returns can end there at a
# gain whose Stein operator has spectral radius 1.2366 and 1.00009.
HARSH_PLANTS = {
    (1002, 603): (
        [[0.8434915123298374, 0.6145396141091303, -1.2606195538488378, 4.224583320200218],
         [1.594531473179094, 3.399881727050515, -1.3663234666203798, -0.6479385395941584],
         [-1.1099212073808868, 1.5127567351127778, 3.083311869984182, -4.211842106475879],
         [4.395931803829341, 0.5249810754900146, -1.3511508377714083, -2.226957097558694]],
        [[-24.43593648431229], [14.453776416203858], [-14.127836499899693], [13.816575111987378]],
        0.9999703973055354),
    (1001, 79): (
        [[2.4849869904513127, -0.12395841965763629, -0.750404844743669, -0.5886795013752942],
         [-1.946309447682601, -1.3334076412807638, -2.346253288964497, 0.9637674350254131],
         [-3.238740131870201, -0.5014336063633049, 0.567075775181869, 2.937357008922224],
         [0.8953006451519646, -0.8672847370617945, 0.21931729644831213, 2.093068187620066]],
        [[2.610157086963769], [-71.00458602056094], [34.78436474906609], [16.947547222328776]],
        0.9926950238179232),
}


def _harsh_draw(seed: int, index: int):
    """Draw ``index`` (skipped draws counted) of the harsh generator: n 1-6, A
    Gaussian x U(0.2, 2.5), B Gaussian x 10^U(-2, 2), a draw with sigma_c at or
    above 1 - 1e-12 skipped, else sigma = sigma_c + (1 - sigma_c) 10^U(-8, 0)."""
    rng = np.random.default_rng(seed)
    for draw in range(index + 1):
        n = int(rng.integers(1, 7))
        A = rng.standard_normal((n, n)) * rng.uniform(0.2, 2.5)
        B = rng.standard_normal((n, 1)) * 10.0 ** rng.uniform(-2, 2)
        sc = sigma_critical(A, 1.0)
        if sc >= 1.0 - 1e-12:
            continue
        sigma = sc + (1.0 - sc) * 10.0 ** rng.uniform(-8, 0)
        if draw == index:
            return A, B, sigma
    raise AssertionError(f"draw {index} of seed {seed} was skipped")


@pytest.mark.parametrize("seed, index", sorted(HARSH_PLANTS))
def test_solve_mare_returns_only_a_stabilizing_gain(seed, index):
    # the written-out plant is the generator's draw; solve_mare either returns
    # a gain whose Stein operator is Schur stable or raises Divergence
    Abar, B, sigma = (np.array(x) for x in HARSH_PLANTS[seed, index])
    drawn = _harsh_draw(seed, index)
    assert np.array_equal(drawn[0], Abar) and np.array_equal(drawn[1], B)
    assert drawn[2] == sigma
    try:
        sol = solve_mare(Abar, B, sigma)
    except Divergence as exc:
        assert 0 < exc.iterations <= analysis.MARE_SOLVES
        return
    F = Abar + B @ sol.K
    stein = sigma * np.kron(F.T, F.T) + (1.0 - sigma) * np.kron(Abar.T, Abar.T)
    assert spectral_radius(stein) < 1.0


@pytest.mark.parametrize("Abar", [[[1.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]], A_SHOWCASE])
def test_solve_mare_with_poles_on_the_unit_circle(Abar):
    # a pole on the unit circle is its own mirror, so the first start is
    # marginal; the pulled start must give the stabilizing solution
    Abar, B = np.asarray(Abar), np.array([[0.0], [1.0]])
    critical = sigma_critical(Abar, 1.0)
    for sigma in (0.5 + 0.5 * critical, 0.9, 1.0):
        _assert_stabilizing_solution(Abar, B, sigma, solve_mare(Abar, B, sigma))


def test_decoupled_double_integrators_take_the_riccati_gain():
    # without physical coupling the Riccati solve sees the agent's double pole
    # at 1 itself
    model = LimasModel([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], cycle4_graph(),
                       WeightedGraph.complete(4), alpha=0.0)
    report = analyze(model)
    assert report.verdict == "consensusable"
    assert report.gain_source == "riccati"


def _near_unit_circle_plants(count: int):
    """(Abar, B), in turn: a rotation by an angle U(0.1, 3); a double integrator
    [[1, 0.1], [0, 1]] and diag(1, 1.3, 0.5) in the coordinates of a Gaussian
    matrix plus 2I and 3I; a rotation block beside a pole at 1.2. B Gaussian."""
    rng = np.random.default_rng(3)
    for index in range(count):
        kind = index % 4
        if kind in (0, 3):
            t = rng.uniform(0.1, 3.0)
            A = np.zeros((2, 2) if kind == 0 else (3, 3))
            A[:2, :2] = [[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]
            if kind == 3:
                A[2, 2], A[0, 2] = 1.2, 0.3
        else:
            D = np.array([[1.0, 0.1], [0.0, 1.0]]) if kind == 1 else np.diag([1.0, 1.3, 0.5])
            T = rng.standard_normal(D.shape) + len(D) * np.eye(len(D))
            A = T @ D @ np.linalg.inv(T)
        yield A, rng.standard_normal((len(A), 1))


# (plant index, sigma position) of the plants above on which solve_mare raises
# Divergence: a double integrator whose controllability matrix has condition
# number 3.5e5, at sigma = 1. This tuple may only shrink.
NEAR_UNIT_CIRCLE_DIVERGED = ((329, 2),)


def test_solve_mare_with_poles_near_the_unit_circle():
    # rounding puts these poles just inside or outside the unit circle, which
    # leaves the first start marginal; each sigma above sigma_c must still get
    # the stabilizing solution
    diverged = []
    for index, (Abar, B) in enumerate(_near_unit_circle_plants(400)):
        critical = sigma_critical(Abar, 1.0)
        for position, sigma in enumerate((critical + 0.5 * (1.0 - critical),
                                          critical + 1e-3 * (1.0 - critical), 1.0)):
            try:
                sol = solve_mare(Abar, B, sigma)
            except Divergence:
                diverged.append((index, position))
                continue
            _assert_stabilizing_solution(Abar, B, sigma, sol)
    assert tuple(diverged) == NEAR_UNIT_CIRCLE_DIVERGED


def test_solve_mare_below_critical_property(monkeypatch):
    # the exact early exit refuses every below-critical sigma, and with the
    # exit bypassed Newton still ends in Divergence
    instances = list(_random_mare_instances(6, 152, "below"))
    for Abar, B, sigma in instances:
        with pytest.raises(Divergence) as err:
            solve_mare(Abar, B, sigma)
        assert err.value.iterations == 0
    monkeypatch.setattr(analysis, "_critical_margin", lambda values: 0.0)
    for Abar, B, sigma in instances[:30]:
        with pytest.raises(Divergence) as err:
            solve_mare(Abar, B, sigma)
        assert err.value.iterations > 0


def test_solve_mare_counts_a_failed_stein_spectrum_as_unstable(monkeypatch):
    # the eigenvalue solver fails on every 4 x 4 Stein operator (n = 2), so the
    # gate refuses the gain that Newton converges to from the pulled start
    eigvals = np.linalg.eigvals

    def failing_on_stein(M):
        if np.shape(M) == (4, 4):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(M)

    monkeypatch.setattr(np.linalg, "eigvals", failing_on_stein)
    with pytest.raises(Divergence, match=r"^Newton at sigma = 0\.9 stopped after \d+ Stein "
                                         r"solves: the gain is not stabilizing$") as err:
        solve_mare(A_SHOWCASE, B_SHOWCASE, 0.9)
    assert err.value.iterations > 0


def _cap_newton_at_one_solve(monkeypatch):
    monkeypatch.setattr(analysis, "MARE_SOLVES", 1)


def _fail_the_stein_solve(monkeypatch):
    # only the n^2 x n^2 Stein system fails; the start gain's n x n solve runs
    solve = np.linalg.solve

    def failing_on_stein(a, b):
        if np.shape(a) == (4, 4):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_on_stein)


NEWTON_EXITS = [(_cap_newton_at_one_solve, "no convergence"),
                (_fail_the_stein_solve, "singular Stein equation")]


@pytest.mark.parametrize("fail, reason", NEWTON_EXITS)
def test_solve_mare_names_each_newton_failure(monkeypatch, fail, reason):
    # halfway between the critical margin and 1 Newton converges when left alone
    sigma = sigma_critical(A_SHOWCASE, 1.0)
    sigma += (1.0 - sigma) / 2.0
    assert solve_mare(A_SHOWCASE, B_SHOWCASE, sigma).iterations > 1
    fail(monkeypatch)
    with pytest.raises(Divergence) as err:
        solve_mare(A_SHOWCASE, B_SHOWCASE, sigma)
    assert str(err.value) == f"Newton at sigma = {sigma:.12g} stopped after 1 Stein solves: {reason}"
    assert err.value.iterations == 1


@pytest.mark.parametrize("fail, reason", NEWTON_EXITS)
def test_analyze_reports_each_newton_failure(showcase_model, monkeypatch, fail, reason):
    fail(monkeypatch)
    report = analyze(showcase_model)
    assert report.sufficient.holds
    assert re.fullmatch(r"Newton at sigma = \S+ stopped after 1 Stein solves: " + reason,
                        report.synthesis_error)
    assert report.gain is None and report.verdict != "consensusable"


@pytest.mark.parametrize("Abar, B", [(A_SHOWCASE, B_SHOWCASE), ([[2.0]], [[1.0]])])
def test_solve_mare_just_above_critical_terminates(Abar, B):
    # right at the boundary rounding decides; either outcome is fine, a hang is not
    sigma = sigma_critical(Abar, 1.0) * (1.0 + 1e-13)
    try:
        sol = solve_mare(Abar, B, sigma)
    except Divergence as exc:
        assert 0 < exc.iterations < 10_000
    else:
        assert sol.iterations < 10_000
        assert _relative_riccati_residual(np.asarray(Abar), np.asarray(B), sigma, sol.P) <= 1e-10


def test_near_critical_benchmark_models_take_the_start(tmp_path, workloads):
    # the Riccati gain certifies all 12 near-critical benchmark models of
    # each of seeds 1-3
    certified = 0
    for seed in (1, 2, 3):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        cases, _, _ = workloads.build("riccati-near-critical", seed, workdir)
        for case in cases:
            certified += analyze(load_model(case.model)).gain_source == "riccati"
    assert certified == 36


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4])
def test_near_critical_benchmark_model_is_certified(workloads, d, n):
    # the benchmark's N = 8 cycle/complete model at sigma_c + d, which the
    # 100 000-step fixed point could not solve at d = 1e-4; Newton from the
    # start at the target keeps the Stein solves within 25
    poles = workloads.UNSTABLE_POLES + workloads.STABLE_POLES[: n - 2]
    w_p = workloads.physical_weight_at_gap(d, poles, 8)
    model = model_from_dict(workloads._model(
        workloads._companion(poles), workloads._unit_input(n), 8,
        ("cycle", w_p), ("complete", 1.0)))
    report = analyze(model)
    assert report.verdict == "consensusable"
    assert report.gain_source == "riccati"
    assert verify_gain(model, [report.gain]).stable
    assert report.mare_iterations <= 25


# --- gain synthesis -----------------------------------------------------------

def test_riccati_gain_showcase(showcase_model):
    report = analyze(showcase_model)
    assert report.gain_source == "riccati" and max(report.modal_radii) < 1.0
    # the P of the recorded sigma solves the strict inequality for every
    # reported mode margin
    suff = report.sufficient
    Abar = suff.alpha_max * showcase_model.A
    mare = solve_mare(Abar, showcase_model.B, report.mare_sigma)
    assert mare.iterations == report.mare_iterations
    P = mare.P
    assert np.min(np.linalg.eigvalsh(P)) > 1e-10 * np.linalg.norm(P)
    for sigma_i in suff.sigma_modes:
        assert mare_inequality_margin(Abar, showcase_model.B, sigma_i, P) <= -1e-12


def test_plants_with_a_pole_at_zero_synthesize_without_warnings():
    # the start gain mirrors only the poles outside the unit circle, so an
    # exact zero pole is never inverted (under the suite's warnings-as-errors)
    for A in ([[0.0, 1.0], [0.0, 0.0]], [[1.2, 1.0], [0.0, 0.0]]):
        report = analyze(LimasModel(A, B_SHOWCASE, cycle4_graph(),
                                    WeightedGraph.complete(4), alpha=0.3))
        assert report.gain_source == "riccati" and report.verdict == "consensusable"


def test_no_riccati_gain_without_the_sufficient_condition():
    A = np.array([[3.0, 1.0], [0.0, 0.3]])
    model = LimasModel(A, B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), alpha=3.0)
    report = analyze(model)
    assert not report.sufficient.holds
    assert report.gain is None and report.synthesis_error is None
    assert report.mare_sigma is None and report.mare_iterations is None


def test_the_riccati_sigma_accompanies_only_a_riccati_gain():
    # with B and the communication weight near 1e-154 the Riccati gain's
    # scaling can leave the float range; that gain is then not recorded, and
    # neither are its sigma and solve count. No warning is raised (they are
    # errors here)
    powers = [float(f"1e{x}") for x in range(-158, -149)]
    for a, b, weight in itertools.product((0.5, 0.99, 3.0), powers, powers):
        report = analyze(LimasModel([[a]], [[b]], WeightedGraph(3, []),
                                    WeightedGraph.complete(3, weight), alpha=0.0))
        assert (report.mare_sigma is not None) == (report.gain_source == "riccati"), \
            (a, b, weight)


def test_a_start_gain_beyond_the_float_range_is_divergence():
    # B near the smallest subnormal puts Ackermann's start gain beyond the
    # float range; solve_mare refuses it without a warning (they are errors here)
    model = LimasModel([[0.5, 0.1], [0.0, 0.4]], [[0.0], [1e-320]], WeightedGraph.path(3, 0.1),
                       WeightedGraph.complete(3, 1.0), alpha=0.1)
    report = analyze(model)
    assert report.sufficient.holds
    assert report.synthesis_error == "the start gain is beyond the float range"
    assert report.gain is None and report.verdict == "inconclusive"


def test_synthesis_margin_at_or_below_critical_is_divergence(showcase_model):
    # the margin is clipped into [0, 1]; solve_mare refuses it up front
    suff = sufficient_check(showcase_model)
    assert suff.sigma_c > 0.0
    for margin in (suff.sigma_c, 0.5 * suff.sigma_c, -1e-17):
        forged = dataclasses.replace(suff, sigma_modes=np.full_like(suff.sigma_modes, margin))
        with pytest.raises(Divergence) as err:
            analysis._synthesize(showcase_model, forged)
        assert err.value.iterations == 0


def test_synthesis_soundness_randomized():
    # the sufficient verdict always leads to a Riccati gain, and every mode
    # of that gain is verified stable
    rng = np.random.default_rng(31)
    positives = 0
    for _ in range(120):
        model = random_coupled_model(rng, n=int(rng.integers(1, 5)))
        report = analyze(model)
        if report.sufficient is None:
            assert report.sufficient_error.startswith("assumption ")
            continue
        if not report.sufficient.holds:
            continue
        positives += 1
        assert report.gain_source == "riccati"
        assert max(report.modal_radii) < 1.0
    assert positives >= 10


# --- necessary condition -------------------------------------------------------

def test_necessary_check_showcase(showcase_model):
    res = necessary_check(showcase_model)
    assert res.holds
    assert res.gamma_c == pytest.approx(1.0, abs=1e-12)
    assert sorted(res.dets) == pytest.approx([1.1616, 1.3254, 1.3254], rel=1e-9)
    assert res.lhs == pytest.approx(0.1638, rel=1e-9)
    assert res.rhs == pytest.approx(2.0, abs=1e-12)


def test_necessary_check_zero_state_matrix():
    # with A = 0 the condition reduces to |det Ap| * |gc*lp_min^n - lp_max^n|
    Ap = np.array([[0.5, 0.2], [0.1, 0.4]])
    model = LimasModel(np.zeros((2, 2)), B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), Ap=Ap)
    spec = model.joint_spectrum
    res = necessary_check(model)
    lp = np.sort(spec.lambda_p[1:])
    expected = abs(np.linalg.det(Ap)) * abs(res.gamma_c * lp[0]**2 - lp[-1]**2)
    assert res.lhs == pytest.approx(expected, rel=1e-9)


def test_necessary_check_decoupled_equal_dets():
    gp = cycle4_graph()
    gc = WeightedGraph.complete(4, 0.7)
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, gp, gc, alpha=0.0)
    res = necessary_check(model)
    det_a = abs(np.linalg.det(A_SHOWCASE))
    assert res.det_min == pytest.approx(det_a, rel=1e-12)
    assert res.det_max == pytest.approx(det_a, rel=1e-12)
    assert res.lhs == pytest.approx(abs(res.gamma_c - 1.0) * det_a, rel=1e-9, abs=1e-12)


def test_necessary_check_skips_coupling_assumption():
    # non-proportional Ap must not block the necessary condition
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), Ap=[[0.1, 0.2], [0.05, 0.3]])
    res = necessary_check(model)
    assert isinstance(res.holds, bool)


def test_necessary_check_uncontrollable_mode():
    model = LimasModel(A_SHOWCASE, B_SHOWCASE,
                       WeightedGraph(2, [(0, 1, 0.5)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=1.0)
    with pytest.raises(AssumptionViolated) as err:
        necessary_check(model)
    assert err.value.which == 2


def test_necessary_check_keeps_a_stabilizable_coupled_model():
    # n = 2, Ap = 0.3*A: the paper's inequality fails (lhs >= rhs), but the
    # modes' determinant coefficients lc_i*alpha_i*K adj(A)B leave the common
    # interval of c = K adj(A)B nonempty, and K = [1.7, -0.1] stabilizes
    model = LimasModel([[-2.2, -0.5], [-1.3, 1.7]], [[0.0], [1.0]],
                       WeightedGraph.path(3), WeightedGraph.complete(3), alpha=0.3)
    res = necessary_check(model)
    assert res.lhs >= res.rhs
    assert res.holds
    assert max(modal_radii(model, [[1.7, -0.1]])) < 1.0
    assert jury_lp_margin(model) > 0.0
    assert analyze(model).verdict == "inconclusive"


def test_necessary_check_refutes_by_exact_scalar_interval():
    # n = 1, a = 3 on two unit 5-cycles: mode i needs k in
    # (1 - 4/lp_i, 1 - 2/lp_i), and lp = 1.38 and 3.62 give disjoint
    # intervals, while the paper's inequality alone reads lhs 0 < rhs
    gp = gc = WeightedGraph.cycle(5)
    model = LimasModel([[3.0]], [[1.0]], gp, gc, Ap=[[1.0]])
    res = necessary_check(model)
    assert res.lhs < res.rhs
    assert not res.holds
    k_lo, k_hi = exact_stabilizing_interval(3.0, laplacian(gp), laplacian(gc))
    assert k_lo >= k_hi
    assert analyze(model).verdict == "not-consensusable"


def test_necessary_check_without_proportional_coupling_never_refutes():
    # n = 2 and Ap not a multiple of A: the modes share no scalar gain
    # coordinate, so however far apart the determinants are, nothing is refuted
    model = LimasModel([[3.0, 1.0], [0.0, 2.5]], B_SHOWCASE, WeightedGraph.path(4, 5.0),
                       WeightedGraph.complete(4), Ap=[[0.1, 0.2], [0.05, 0.3]])
    res = necessary_check(model)
    assert res.lhs >= res.rhs
    assert res.holds


@pytest.mark.parametrize("miss, refuted", [(0.0, False), (1e-10, False), (1e-3, True)])
def test_necessary_check_refutes_only_with_room_to_spare(miss, refuted):
    # A = [[0, 1], [-d, 0]], Ap = 0.1*A + 1e-10 off the diagonal (inside the
    # coupling gate) on path(3) / complete(3): alpha_i = 0.9, 0.7 and lc_i = 3.
    # At d = d0 the two determinant intervals of c touch, and past it they
    # miss each other by about 0.07*(d/d0 - 1). A miss of the order of the
    # coupling residual is no refutation; a clear one is, and no gain exists
    d = (1 / 0.9 + 1 / 0.7) / 0.2 * (1.0 + miss)
    A = np.array([[0.0, 1.0], [-d, 0.0]])
    model = LimasModel(A, [[0.0], [1.0]], WeightedGraph.path(3), WeightedGraph.complete(3),
                       Ap=0.1 * A + 1e-10 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert model.coupling_check[0].residual > 0.0
    assert necessary_check(model).holds is not refuted
    if refuted:
        assert jury_lp_margin(model) < 0.0


def test_refutations_are_infeasible_for_the_jury_lp():
    # coupled n = 2 models on commuting path / complete graphs. With n = 2 a
    # gain exists exactly when the reference Jury LP has a positive margin, so
    # a "not-consensusable" verdict must come with a margin of at most zero
    rng = np.random.default_rng(0)
    refuted = certified = 0
    for _ in range(200):
        N = int(rng.integers(3, 6))
        gp = WeightedGraph.path(N, float(rng.uniform(0.2, 1.5)))
        gc = (WeightedGraph.complete(N, float(rng.uniform(0.2, 1.0))) if rng.random() < 0.5
              else WeightedGraph.path(N, float(rng.uniform(0.2, 1.5))))
        model = LimasModel(rng.uniform(-2.5, 2.5, (2, 2)), rng.uniform(-1.0, 1.0, (2, 1)),
                           gp, gc, alpha=float(rng.uniform(-0.6, 0.6)))
        report = analyze(model)
        if report.verdict == "inconclusive":
            continue
        margin = jury_lp_margin(model)
        if report.verdict == "not-consensusable":
            refuted += 1
            assert margin <= 1e-9
        else:
            certified += 1
            assert margin > 0.0
    assert refuted >= 40 and certified >= 5


# --- scalar conditions ----------------------------------------------------------

def opposite_edges_k4(x: float, y: float, z: float) -> WeightedGraph:
    """K4 with weight x on edges 01 and 23, y on 02 and 13, z on 03 and 12 (a zero
    weight drops the pair). The vectors of +-1 that sum to 0 are its eigenvectors,
    with the Laplacian eigenvalues 2(y + z), 2(x + z) and 2(x + y)."""
    edges = [(0, 1, x), (2, 3, x), (0, 2, y), (1, 3, y), (0, 3, z), (1, 2, z)]
    return WeightedGraph(4, [edge for edge in edges if edge[2] > 0.0])


def test_scalar_check_path_example():
    # no physical edges, and a unit path for communication: modes 1 and 3
    res = scalar_check(unit_scalar_model(1.2, WeightedGraph(3, []), WeightedGraph.path(3)))
    assert not res.c1
    assert res.c2
    assert res.k_minus[0] == pytest.approx(-2.2 / 3.0, rel=1e-12)
    assert res.k_minus[1] == pytest.approx(-0.2, rel=1e-12)
    assert res.necessary
    # every projected eigenvalue at the recommended gain is inside the circle
    k = res.k_recommended
    assert res.k_minus[0] < k < 0.0
    assert max(abs(1.2 + k * 1.0), abs(1.2 + k * 3.0)) < 1.0


def test_scalar_check_stable_decoupled():
    # communication modes 0.8, 1.0 and 1.4
    gc = opposite_edges_k4(0.4, 0.3, 0.1)
    assert np.allclose(np.linalg.eigvalsh(laplacian(gc)), [0.0, 0.8, 1.0, 1.4], atol=1e-12)
    res = scalar_check(unit_scalar_model(0.5, WeightedGraph(4, []), gc))
    assert res.c1
    assert res.k_plus[0] < 0.0 < res.k_plus[1]
    assert res.necessary


def test_scalar_check_wide_physical_spread():
    # a physical spread of two or more defeats both interval conditions:
    # physical modes 0.5, 2.5 and 2.6, communication modes 1, 2 and 3
    gp, gc = opposite_edges_k4(1.15, 0.15, 0.1), opposite_edges_k4(0.5, 0.0, 1.0)
    assert np.allclose(np.linalg.eigvalsh(laplacian(gp)), [0.0, 0.5, 2.5, 2.6], atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(laplacian(gc)), [0.0, 1.0, 2.0, 3.0], atol=1e-12)
    res = scalar_check(unit_scalar_model(0.0, gp, gc))
    assert not res.c1 and not res.c2
    res = scalar_check(unit_scalar_model(2.0, gp, gc))
    assert not res.c1 and not res.c2


def test_scalar_check_necessary_failure():
    # physical modes 5 and 15 against a communication eigenratio of one
    res = scalar_check(unit_scalar_model(0.0, WeightedGraph.path(3, 5.0),
                                         WeightedGraph.complete(3)))
    assert not res.necessary


def test_scalar_check_input_checks():
    # the scalar conditions refuse what every condition refuses, and n >= 2
    gp, gc = WeightedGraph.path(3), WeightedGraph.complete(3)
    with pytest.raises(NotScalar, match="^scalar conditions need n = 1, got n = 2$"):
        scalar_check(LimasModel(A_SHOWCASE, B_SHOWCASE, gp, gc, alpha=0.3))
    with pytest.raises(AssumptionViolated) as err:
        scalar_check(LimasModel([[1.2]], [[0.0]], gp, gc, alpha=0.1))
    assert err.value.which == 2


@pytest.mark.parametrize("physical", ["complete", "cycle"])
def test_modes_beyond_the_float_range_refute_nothing(physical):
    # the modes read inf, so the determinant gap and the scalar distances are
    # NaN, and a NaN refutes nothing; alpha_max * A = 119e308 overflows too, and
    # the sufficient check names it. numpy warns of nothing (warnings are errors)
    model = overflowing_modes_model(physical)
    assert necessary_check(model).holds
    assert scalar_check(model).necessary
    reason = "alpha_max * A is beyond the float range (alpha_max = 119)"
    with pytest.raises(NoConvergence, match=f"^{re.escape(reason)}$"):
        sufficient_check(model)
    report = analyze(model)
    assert report.sufficient_error == reason
    assert report.gain is None and report.verdict == "inconclusive"


# --- modal radii -----------------------------------------------------------------

def test_modal_radii_decoupled_zero_gain():
    model = four_agent_model(alpha=0.0)
    radii = modal_radii(model, np.zeros((1, 2)))
    assert np.allclose(radii, 1.5, atol=1e-12)  # spectral radius of A


def test_modal_radii_refuse_a_gain_beyond_the_float_range_without_a_warning():
    # the modes of K = 1e308 overflow to inf, which eig_general refuses; numpy
    # warns of nothing (warnings are errors here)
    with pytest.raises(NoConvergence):
        modal_radii(four_agent_model(), [[1e308, 1e308]])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_svd_that_does_not_converge_is_no_convergence():
    # the Krylov matrix of 1e200 * triu(ones(4)) overflows (numpy warns of it),
    # and LAPACK's SVD of it fails; both the controllability check and the
    # MARE's stabilizability check raise a LimasError, not numpy's LinAlgError
    A, B = 1e200 * np.triu(np.ones((4, 4))), np.ones((4, 1))
    model = LimasModel(A, B, WeightedGraph.path(3), WeightedGraph.complete(3), alpha=0.25)
    with pytest.raises(NoConvergence, match="^SVD did not converge$"):
        analyze(model)
    with pytest.raises(NoConvergence, match="^SVD did not converge$"):
        solve_mare(A, B, 0.5)


_SCALE_OF_A = pytest.mark.xfail(strict=True, reason="open item 26 of ROADMAP.md: the Krylov "
                                                  "rank test depends on the scale of A")


@pytest.mark.parametrize("scale", [1.0, 1e3, *(pytest.param(scale, marks=_SCALE_OF_A)
                                               for scale in (1e4, 1e20, 1e200, 1e-100, 1e-200))])
def test_modal_controllability_does_not_depend_on_the_scale_of_a(scale):
    # the modes (1 - alpha * lambda_p) * scale * A of path(3) are nonzero
    # multiples of A, and (c A, B) is controllable for every c != 0
    A, B = scale * np.triu(np.ones((4, 4))), np.ones((4, 1))
    model = LimasModel(A, B, WeightedGraph.path(3), WeightedGraph.complete(3), alpha=0.25)
    assert model.controllability_check.holds


def test_modal_radii_scalar_formula():
    model = LimasModel([[0.9]], [[1.0]], cycle4_graph(),
                       WeightedGraph.complete(4), alpha=1.0)
    spec = model.joint_spectrum
    k = -0.1
    radii = modal_radii(model, [[k]])
    expected = [abs(0.9 - lp * 0.9 + lc * k)
                for lp, lc in zip(spec.lambda_p[1:], spec.lambda_c[1:])]
    assert np.allclose(radii, expected, atol=1e-12)


def test_modal_radii_showcase_certificate(showcase_model):
    report = analyze(showcase_model)
    radii = modal_radii(showcase_model, [report.gain])
    assert np.allclose(radii, report.modal_radii, atol=1e-12)
    assert float(radii.max()) < 1.0


# --- model construction and full analysis -----------------------------------------

def test_model_requires_connected_communication_graph():
    with pytest.raises(ValueError, match="communication graph must be connected"):
        LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                   WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]), alpha=0.3)


def test_model_input_checks():
    gp, gc = cycle4_graph(), WeightedGraph.complete(4)
    with pytest.raises(ValueError, match="^provide Ap, alpha, or both$"):
        LimasModel(A_SHOWCASE, B_SHOWCASE, gp, gc)
    with pytest.raises(ShapeMismatch, match="^A must be square, got 1x2$"):
        LimasModel([[1.0, 2.0]], B_SHOWCASE, gp, gc, alpha=0.3)
    with pytest.raises(ValueError, match="^gp and gc must be WeightedGraph instances$"):
        LimasModel(A_SHOWCASE, B_SHOWCASE, laplacian(gp), gc, alpha=0.3)
    with pytest.raises(ValueError, match="^gp and gc must be WeightedGraph instances$"):
        LimasModel(A_SHOWCASE, B_SHOWCASE, gp, None, alpha=0.3)
    with pytest.raises(ValueError,
                       match="^physical and communication graphs disagree on node count$"):
        LimasModel(A_SHOWCASE, B_SHOWCASE, gp, WeightedGraph.complete(5), alpha=0.3)
    # Ap = alpha * A overflows; as_matrix refuses it, and numpy warns of nothing
    # (warnings are errors in this suite)
    with pytest.raises(ValueError, match="^Ap contains non-finite entries$"):
        LimasModel(A_SHOWCASE, B_SHOWCASE, gp, gc, alpha=1e308)


def test_model_alpha_consistency():
    with pytest.raises(ValueError, match="disagree"):
        LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                   WeightedGraph.complete(4), Ap=0.4 * A_SHOWCASE, alpha=0.3)
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), Ap=0.3 * A_SHOWCASE, alpha=0.3)
    assert model.alpha == 0.3


def test_coupling_gate_is_one_rule():
    # the model's Ap/alpha agreement and assumption 3 decide with one gate,
    # COUPLING_RTOL * ||A||_F, also for an A below unit norm
    drift = np.array([[0.0, 0.0], [1.0, 0.0]])  # unit norm, orthogonal to A
    gp, gc = cycle4_graph(), WeightedGraph.complete(4)
    for A in (A_SHOWCASE, 1e-3 * A_SHOWCASE):
        gate = COUPLING_RTOL * float(np.linalg.norm(A))
        for scale, holds in ((1.0 - 1e-3, True), (1.0 + 1e-3, False)):
            Ap = 0.3 * A + scale * gate * drift
            fitted, _ = LimasModel(A, B_SHOWCASE, gp, gc, Ap=Ap).coupling_check
            assert fitted.holds == holds
            if holds:
                model = LimasModel(A, B_SHOWCASE, gp, gc, Ap=Ap, alpha=0.3)
                assert model.coupling_check[0].holds
            else:
                with pytest.raises(ValueError, match="disagree"):
                    LimasModel(A, B_SHOWCASE, gp, gc, Ap=Ap, alpha=0.3)


def test_coupling_gate_is_free_of_scale():
    # a relative drift of 37 fails at every scale of A, also far below unit
    drift = np.array([[0.0, 1.0], [0.0, 0.0]])
    gp, gc = cycle4_graph(), WeightedGraph.complete(4)
    for c in (1.0, 1e-6, 1e-12):
        A = c * A_SHOWCASE
        Ap = 0.3 * A + 100.0 * c * drift
        check, fitted = LimasModel(A, B_SHOWCASE, gp, gc, Ap=Ap).coupling_check
        assert not check.holds and fitted is None
        with pytest.raises(ValueError, match="disagree"):
            LimasModel(A, B_SHOWCASE, gp, gc, Ap=Ap, alpha=0.3)


def test_coupling_gate_holds_its_ground_near_the_float_limits():
    # ||A||_F overflows for A = diag(1e308, 1e308), though A is finite; the fit
    # and the gate read A and Ap scaled by a power of two, so they neither
    # overflow nor warn (warnings are errors in this suite)
    A = np.diag([1e308, 1e308])
    gp = gc = WeightedGraph.path(3)
    Ap = np.array([[0.0, 5.0], [7.0, 0.0]])
    with pytest.raises(ValueError, match="^Ap and alpha disagree: .* = 4.24264e\\+307$"):
        LimasModel(A, B_SHOWCASE, gp, gc, Ap=Ap, alpha=0.3)
    # the fit is 0, and ||Ap|| = sqrt(74) is far below 1e-9 ||A||: the gate holds
    check, fitted = LimasModel(A, B_SHOWCASE, gp, gc, Ap=Ap).coupling_check
    assert check.holds and fitted == 0.0 and check.residual == np.sqrt(74.0)
    # an Ap of A's own size orthogonal to it fails, its residual at the float maximum
    check, fitted = LimasModel(A, B_SHOWCASE, gp, gc, Ap=A[::-1]).coupling_check
    assert not check.holds and fitted is None and check.residual == np.hypot(1e308, 1e308)
    # a relative drift fails alike at unit scale, near the float maximum, where
    # <A, A> overflows, and near the minimum, where the squares underflow
    drift = np.array([[0.0, 1.0], [0.0, 0.0]])
    residuals = []
    for c in (1.0, 1e300, 1e-300):
        A = c * A_SHOWCASE
        check, fitted = LimasModel(A, B_SHOWCASE, gp, gc, Ap=0.3 * A + c * drift).coupling_check
        assert not check.holds and fitted is None
        residuals.append(check.residual / c)
    assert residuals == pytest.approx([residuals[0]] * 3)


def test_model_rejects_non_finite_alpha():
    # with Ap given, NaN would pass the drift check, since nan > tol is False
    g = WeightedGraph(2, [(0, 1, 1.0)])
    for alpha in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="alpha must be finite"):
            LimasModel([[1.1]], [[1.0]], g, g, Ap=[[0.1]], alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be finite"):
            LimasModel([[1.1]], [[1.0]], g, g, alpha=alpha)


def test_model_rejects_a_non_numeric_alpha():
    # alpha is converted once, and what does not convert is refused like a
    # non-finite alpha, not by a TypeError out of numpy or float()
    g = WeightedGraph(2, [(0, 1, 1.0)])
    for alpha in ("x", [0.3], {}):
        message = "^" + re.escape(f"alpha must be finite, got {alpha}") + "$"
        with pytest.raises(ValueError, match=message):
            LimasModel([[1.1]], [[1.0]], g, g, Ap=[[0.1]], alpha=alpha)
        with pytest.raises(ValueError, match=message):
            LimasModel([[1.1]], [[1.0]], g, g, alpha=alpha)


def test_analyze_showcase_certifies(showcase_model):
    report = analyze(showcase_model)
    assert report.verdict == "consensusable"
    assert report.consensusable_certified
    assert report.sufficient.holds and report.necessary.holds
    assert max(report.modal_radii) < 1.0
    assert report.alpha == pytest.approx(0.3)


def test_analyze_is_free_of_b_scale(showcase_model):
    # P and the rank tests ignore the scale of B; only the gain rescales
    ref = analyze(showcase_model)
    for c in (1e-10, 1e-7, 1e7):
        model = LimasModel(A_SHOWCASE, c * B_SHOWCASE, cycle4_graph(),
                           WeightedGraph.complete(4), alpha=0.3)
        report = analyze(model)
        assert report.verdict == "consensusable"
        assert max(report.modal_radii) == pytest.approx(max(ref.modal_radii), rel=1e-9)
        assert np.allclose(c * np.array(report.gain), ref.gain, rtol=1e-9, atol=0.0)


def test_analyze_records_degenerate_gain_kernel(showcase_model, monkeypatch):
    # a Riccati solve that fails leaves the report without a gain and names why
    def failing(Abar, B, sigma, *, spectrum=None):
        raise Divergence("Newton at sigma = 0.5 stopped after 50 Stein solves: no convergence")

    monkeypatch.setattr(analysis, "solve_mare", failing)
    report = analyze(showcase_model)
    assert report.synthesis_error == "Newton at sigma = 0.5 stopped after 50 Stein solves: no convergence"
    assert report.gain is None and report.verdict == "inconclusive"


def test_analyze_reports_a_riccati_gain_its_radii_do_not_certify_as_uncertified(
        showcase_model, monkeypatch):
    # _certify judges the Riccati gain like any other: it is kept and reported
    monkeypatch.setattr(analysis, "modal_radii",
                        lambda model, K: np.array([0.5, 1.5, 0.5]))
    report = analyze(showcase_model)
    assert report.gain is not None and report.gain_source == "riccati"
    assert report.mare_sigma is not None
    assert report.certificate_method == "modal-radii"
    assert report.certified_radius == 1.5 and report.modal_radii == [0.5, 1.5, 0.5]
    assert not report.consensusable_certified
    assert report.synthesis_error is None
    assert report.verdict == "inconclusive"


def test_analyze_records_degenerate_spectrum(monkeypatch):
    # with no room for rounding, the joint diagonalization fails its residual
    # gate; a cycle communication graph is not scalar, so the gate is computed
    monkeypatch.setattr(graphs, "OFFDIAG_RTOL", 0.0)
    report = analyze(four_agent_model(gc=cycle4_graph(1.0)))
    assert report.assumption_commuting.holds
    assert re.fullmatch(r"off-diagonal residual \S+ too large for the physical Laplacian",
                        report.sufficient_error)
    assert report.necessary_error == report.sufficient_error
    assert report.lambda_p_paired is None and report.lambda_c_paired is None
    assert report.sufficient is None and report.necessary is None
    assert report.gain is None and report.verdict == "inconclusive"


def test_analyze_showcase_with_projector_style_communication():
    # complete graph with weight 1/4: communication spectrum {0, 1, 1, 1};
    # the verdicts must match the unit-weight variant
    model = four_agent_model(gc=WeightedGraph.complete(4, 0.25))
    report = analyze(model)
    assert np.allclose(sorted(report.lambda_c), [0.0, 1.0, 1.0, 1.0], atol=1e-9)
    assert report.sufficient.holds and report.necessary.holds
    assert report.verdict == "consensusable"


def test_riccati_gain_single_mode_midpoint_placement():
    # one deviation mode: the midpoint gain scale cancels it exactly
    model = LimasModel([[1.3]], [[2.0]], WeightedGraph(2, [(0, 1, 0.3)]),
                       WeightedGraph(2, [(0, 1, 0.8)]), alpha=0.5)
    res = sufficient_check(model)
    assert res.holds
    assert res.k_star == pytest.approx(0.7 / 1.6, rel=1e-12)
    report = analyze(model)
    assert report.gain_source == "riccati"
    assert max(report.modal_radii) == pytest.approx(0.0, abs=1e-9)


def test_synthesized_gain_matches_the_kernel_formula_property():
    # K = (k* / alpha_max) * mare.K equals -k* (B'PB)^-1 B'PA of the same P up
    # to rounding: both round B'PA and B'PB, and the rounding of B'PB weighs
    # ||P|| B'B / B'PB more. The P is solve_mare's at analyze's recorded sigma
    eps = np.finfo(float).eps
    rng = np.random.default_rng(0)
    synthesized = 0
    while synthesized < 300:
        model = random_coupled_model(rng)
        report = analyze(model)
        suff = report.sufficient
        if not suff.holds or suff.alpha_max == 0.0:
            continue
        assert report.gain_source == "riccati"
        synthesized += 1
        B, A = model.B, model.A
        P = solve_mare(suff.alpha_max * A, B, report.mare_sigma).P
        btpb = float((B.T @ P @ B).item())
        reference = -suff.k_star * (B.T @ P @ A) / btpb
        norm_b, norm_p = np.linalg.norm(B, 2), np.linalg.norm(P, 2)
        bound = 4.0 * eps * abs(suff.k_star) * norm_b * norm_p * np.linalg.norm(A, 2) \
            / btpb * (1.0 + norm_p * norm_b ** 2 / btpb)
        assert np.linalg.norm(np.array([report.gain]) - reference, 2) <= bound


def test_analyze_fitted_alpha_without_declaration():
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), Ap=0.3 * A_SHOWCASE)
    report = analyze(model)
    assert report.assumption_coupling.holds
    assert report.alpha == pytest.approx(0.3, abs=1e-12)
    assert report.verdict == "consensusable"


def test_analyze_non_commuting_reports_errors():
    gp = WeightedGraph.path(3)
    gc = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 3.0)])
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, gp, gc, alpha=0.3)
    report = analyze(model)
    assert not report.assumption_commuting.holds
    assert report.sufficient is None and report.necessary is None
    assert report.verdict == "inconclusive"


def test_analyze_scalar_non_commuting_uses_interval_gain():
    gp = WeightedGraph.path(3)
    gc = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 3.0)])
    model = LimasModel([[0.9]], [[1.0]], gp, gc, alpha=0.1)
    report = analyze(model)
    assert not report.assumption_commuting.holds
    assert report.scalar.k_recommended == pytest.approx(0.0142948, rel=1e-5)
    assert report.gain == [report.scalar.k_recommended]
    assert report.gain_source == "scalar-interval"
    assert report.certificate_method == "projected-radius"
    assert verify_gain(model, [report.gain]).stable
    assert report.verdict == "consensusable"


def two_agent_scalar_model() -> LimasModel:
    """Scalar agents on one edge: both gain sources produce a stabilizing gain."""
    return LimasModel([[1.3]], [[2.0]], WeightedGraph(2, [(0, 1, 0.3)]),
                      WeightedGraph(2, [(0, 1, 0.8)]), alpha=0.5)


def test_analyze_verifies_the_riccati_gain_before_the_scalar_interval_gain():
    report = analyze(two_agent_scalar_model())
    assert report.scalar.k_recommended is not None
    assert report.gain_source == "riccati"
    assert report.gain == pytest.approx([-0.284375], rel=1e-12)
    assert report.certificate_method == "modal-radii"
    assert report.verdict == "consensusable"


def test_analyze_falls_back_to_the_scalar_interval_gain(monkeypatch):
    def failing(Abar, B, sigma, *, spectrum=None):
        raise Divergence("Newton at sigma = 0.5 stopped after 50 Stein solves: no convergence")

    monkeypatch.setattr(analysis, "solve_mare", failing)
    report = analyze(two_agent_scalar_model())
    assert report.synthesis_error == "Newton at sigma = 0.5 stopped after 50 Stein solves: no convergence"
    assert report.gain_source == "scalar-interval"
    assert report.gain == pytest.approx([0.0140625], rel=1e-12)
    assert report.mare_sigma is None and report.mare_iterations is None
    assert report.certificate_method == "modal-radii"
    assert report.verdict == "consensusable"


@pytest.mark.parametrize("weight", [1e-16, 1e-14])
def test_scalar_conditions_share_the_connectivity_floor(weight):
    # lambda_c[1] rounds to 0 (1e-16) or to 9.9e-15, inside the spectrum's own
    # rounding; the scalar necessary condition would read gamma_c ~ 2e14 there
    model = LimasModel([[1.2]], [[1.0]], WeightedGraph.path(4, 0.1),
                       WeightedGraph(4, [(0, 1, 1.0), (1, 2, weight), (2, 3, 1.0)]),
                       alpha=0.1)
    bound = SPECTRUM_EPS_BOUND * np.finfo(float).eps * np.linalg.norm(model.laplacian_c, 2)
    assert model.spectrum_c[1] <= bound
    report = analyze(model)
    assert report.scalar is None and report.gain is None
    assert report.synthesis_error == \
        "assumption 0 violated: communication graph effectively disconnected"
    assert report.verdict == "inconclusive"
    # called directly, the scalar conditions refuse it too, and so a mode of
    # 1e-13, above the spectrum's rounding but below the floor
    above_rounding = LimasModel([[1.2]], [[1.0]], WeightedGraph.path(4, 0.1),
                                WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1e-13), (2, 3, 1.0)]),
                                alpha=0.1)
    assert above_rounding.spectrum_c[1] > bound
    for weak in (model, above_rounding):
        with pytest.raises(AssumptionViolated) as err:
            scalar_check(weak)
        assert (err.value.which, str(err.value)) == (0, report.synthesis_error)


def test_analyze_scalar_model_without_input():
    # b = 0 leaves every mode uncontrollable: both conditions carry the
    # assumption-2 error, and the scalar conditions are not run, so the
    # report has no gain and no gain error
    model = LimasModel([[1.2]], [[0.0]], WeightedGraph.path(3, 0.1),
                       WeightedGraph.complete(3), alpha=0.1)
    report = analyze(model)
    assert report.scalar is None
    out = report.to_dict()
    assert out["gain"] is None and out["scalar"] is None
    assert model.controllability_check.detail.startswith("uncontrollable at physical modes [0.1, ")
    error = f"assumption 2 violated: {model.controllability_check.detail}"
    assert (out["sufficient"], out["necessary"]) == ({"error": error}, {"error": error})
    assert report.verdict == "inconclusive"


def test_no_report_is_both_certified_and_refuted():
    # a certified gain decides the verdict first, so the verdict alone would
    # hide a refutation that contradicts it
    rng = np.random.default_rng(11)
    reports = [analyze(random_coupled_model(rng, alpha_scale=(0.25, 0.6)[k % 2]))
               for k in range(200)]
    for _ in range(100):
        a, gp, gc = random_scalar_instance(rng)
        reports.append(analyze(LimasModel([[a]], [[float(rng.uniform(0.2, 2.0))]], gp, gc,
                                          Ap=[[float(rng.uniform(-0.5, 0.5))]])))
    certified = [r.consensusable_certified for r in reports]
    refuted = [(r.necessary is not None and not r.necessary.holds)
               or (r.scalar is not None and not r.scalar.necessary) for r in reports]
    assert not any(c and f for c, f in zip(certified, refuted))
    assert sum(certified) >= 150 and sum(refuted) >= 10


def test_analyze_scalar_refutation():
    # huge per-mode determinant spread with an eigenratio of one
    gp = WeightedGraph.path(3, 5.0)
    gc = WeightedGraph.complete(3)
    model = LimasModel([[0.0]], [[1.0]], gp, gc, Ap=[[1.0]])
    report = analyze(model)
    assert report.verdict == "not-consensusable"
    assert report.necessary is not None and not report.necessary.holds
    assert report.scalar is not None and not report.scalar.necessary


def test_scalar_gain_respects_input_coefficient():
    # non-commuting graphs block the riccati path, so the interval gain is
    # used; b = 2 must halve the applied gain relative to the normalized one
    gp = WeightedGraph.path(3)
    gc = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 3.0)])
    model_unit = LimasModel([[1.2]], [[1.0]], gp, gc, alpha=0.1)
    model_double = LimasModel([[1.2]], [[2.0]], gp, gc, alpha=0.1)
    r1 = analyze(model_unit)
    r2 = analyze(model_double)
    assert r1.gain_source == "scalar-interval"
    assert r2.gain_source == "scalar-interval"
    assert r2.gain[0] == pytest.approx(r1.gain[0] / 2.0, rel=1e-12)
    # the applied gain stabilizes the full deviation dynamics either way
    from limas import verify_gain
    assert verify_gain(model_unit, [r1.gain]).stable
    assert verify_gain(model_double, [r2.gain]).stable


def test_analyze_scalar_interval_gain_certified_by_modal_radii():
    # commuting Laplacians, but the sufficient condition fails: the scalar
    # interval gain is certified mode by mode, and the referee agrees
    model = LimasModel([[0.9]], [[2.0]], WeightedGraph.cycle(4, 0.5),
                       WeightedGraph.complete(4), alpha=0.8)
    report = analyze(model)
    assert report.sufficient is not None and not report.sufficient.holds
    assert report.gain_source == "scalar-interval"
    assert report.certificate_method == "modal-radii"
    radii = modal_radii(model, [report.gain])
    assert report.modal_radii == radii.tolist()
    assert report.certified_radius == float(radii.max())
    assert report.verdict == "consensusable"
    assert verify_gain(model, [report.gain]).max_radius == \
        pytest.approx(report.certified_radius, abs=1e-9)


@pytest.mark.parametrize("name", sorted(ROUNDING_FUZZ))
def test_a_radius_within_its_rounding_bound_of_one_certifies_nothing(name):
    from fractions import Fraction

    from limas.cli import render_text

    a, b, alpha, weight = ROUNDING_FUZZ[name]
    model = LimasModel([[a]], [[b]], WeightedGraph(2, [(0, 1, weight)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=alpha)
    report = analyze(model)
    assert (report.gain_source, report.certificate_method) == ("scalar-interval", "modal-radii")
    assert report.certified_radius == 0.0
    # in exact arithmetic on the float inputs the one deviation mode
    # a - 2w ap + 2 b k is outside the unit circle, and both referees agree
    k = report.gain[0]
    mode = (Fraction(a) - 2 * Fraction(weight) * Fraction(model.Ap.item())
            + 2 * Fraction(b) * Fraction(k))
    assert abs(mode) > 1
    assert exact_schur_verdict(model, [report.gain]) == "unstable"
    assert verify_gain(model, [report.gain]).max_radius > 1.0
    assert not report.consensusable_certified
    assert report.verdict == "inconclusive"
    assert report.certificate_detail.startswith(
        "not certified: rounding can move the radius by up to ")
    assert report.synthesis_error is None
    assert report.to_dict()["certificate"]["detail"] == report.certificate_detail
    assert f"max radius 0  ({report.certificate_detail})" in render_text(report)


def test_report_dict_names_the_failed_assumption():
    # Ap = A at the physical mode 1 zeroes the mode matrix
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, WeightedGraph(2, [(0, 1, 0.5)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=1.0)
    assumptions = analyze(model).to_dict()["assumptions"]
    assert assumptions["modal_controllability"] == {
        "holds": False,
        "residual": analysis.check_modal_controllability(model).residual,
        "detail": "uncontrollable at physical modes [1.0]",
    }
    assert "detail" not in assumptions["commuting_laplacians"]


# --- cached per-model quantities -------------------------------------------------

def test_modal_controllability_matches_per_mode_tests():
    from limas.analysis import check_modal_controllability
    from limas.linalg import controllability_margin, is_controllable

    rng = np.random.default_rng(17)
    for _ in range(10):
        model = random_coupled_model(rng)
        check = check_modal_controllability(model)
        mats = [model.A - lam * model.Ap for lam in model.spectrum_p[1:]]
        assert check.residual == min(controllability_margin(M, model.B) for M in mats)
        assert check.holds == all(is_controllable(M, model.B) for M in mats)
    assert not model.spectrum_p.flags.writeable
    assert not model.spectrum_c.flags.writeable
    # Ap = A at the physical mode 1 zeroes the mode matrix
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, WeightedGraph(2, [(0, 1, 0.5)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=1.0)
    check = check_modal_controllability(model)
    assert not check.holds and "[1.0]" in check.detail


def test_model_laplacians_are_read_only_and_no_kernel_writes_its_arguments():
    from limas import projected_deviation_matrix
    from limas.graphs import commute_check
    from limas.linalg import in_completion_basis
    from limas.oracle import scalar_grid_search
    from limas.simulator import closed_loop_matrix, simulate

    rng = np.random.default_rng(29)
    model = random_coupled_model(rng, N=6, n=2)
    for L in (model.laplacian_p, model.laplacian_c):
        with pytest.raises(ValueError):
            L[0, 0] = 1.0
    open_loop = model._deviation_modes[2]
    with pytest.raises(ValueError):
        open_loop[0, 0, 0] = 1.0
    # writeable arguments, so that a write would land instead of raising
    K = rng.uniform(-1.0, 1.0, (1, 2))
    x0 = rng.uniform(0.0, 10.0, 12)
    Lp, Lc = np.array(model.laplacian_p), np.array(model.laplacian_c)
    loop = closed_loop_matrix(model, K)
    arguments = (K, x0, Lp, Lc, loop)
    before = [arr.tobytes() for arr in arguments]
    closed_loop_matrix(model, K)
    simulate(model, K, x0, 20)
    verify_gain(model, K)
    projected_deviation_matrix(model, K)
    in_completion_basis(loop, 2)
    commute_check(laplacian_model(Lp, Lc))
    scalar_grid_search(LimasModel([[0.9]], [[1.0]], model.gp, model.gc, Ap=[[1.0]]), count=101)
    assert [arr.tobytes() for arr in arguments] == before


# Entries i >= 1 of the model spectra lie within this many eps * ||L||_2 of
# eigh's eigenvalues; the benchmark inputs (N up to 256) reach 10.8.
SPECTRUM_EPS_BOUND = 32.0


def test_model_spectra_are_eigenvalues_with_an_exact_consensus_mode():
    from limas.analysis import check_modal_controllability

    rng = np.random.default_rng(43)
    eps = np.finfo(float).eps
    for _ in range(60):
        N, n = int(rng.integers(2, 41)), int(rng.integers(1, 4))
        model = LimasModel(random_state_matrix(rng, n), rng.uniform(-1.0, 1.0, (n, 1)),
                           random_connected_graph(rng, N),
                           random_connected_graph(rng, N, w_lo=0.1, w_hi=1.0),
                           alpha=float(rng.uniform(-0.5, 0.5)))
        assert model.spectrum_p[0] == model.spectrum_c[0] == 0.0
        for spectrum, L in ((model.spectrum_p, model.laplacian_p),
                            (model.spectrum_c, model.laplacian_c)):
            assert spectrum.shape == (N,) and np.all(np.diff(spectrum) >= 0.0)
            reference = np.linalg.eigh(L)[0]
            bound = SPECTRUM_EPS_BOUND * eps * np.linalg.norm(L, 2)
            assert np.abs(spectrum[1:] - reference[1:]).max(initial=0.0) <= bound
        assert check_modal_controllability(model) == model.controllability_check


def test_disconnected_physical_spectrum_stays_ascending():
    # two path components: the second zero eigenvalue may round below the exact first
    rng = np.random.default_rng(0)
    for _ in range(40):
        N = int(rng.integers(4, 30))
        edges = [(i, i + 1, float(rng.uniform(0.05, 0.5)))
                 for i in range(N - 1) if i != N // 2 - 1]
        model = LimasModel([[1.1]], [[1.0]], WeightedGraph(N, edges),
                           WeightedGraph.complete(N), alpha=0.3)
        spectrum = model.spectrum_p
        assert spectrum[0] == 0.0 and np.all(np.diff(spectrum) >= 0.0)
        bound = SPECTRUM_EPS_BOUND * np.finfo(float).eps * np.linalg.norm(model.laplacian_p, 2)
        assert 0.0 <= spectrum[1] <= bound


def test_paired_spectra_of_disconnected_physical_graphs_share_the_spectrum_rule():
    # two or three path components round their extra zeros either way; the
    # pairing reads a negative one as 0, as the model's sorted spectra do. A
    # complete communication graph pairs with lambda_p itself, and its sum with
    # the physical graph pairs through the eigenvectors of the general branch
    paired = 0
    for N in range(4, 41):
        for parts in (2, 3):
            ends = np.linspace(0, N, parts + 1).round().astype(int)
            path = [(i, i + 1) for lo, hi in zip(ends[:-1], ends[1:]) for i in range(lo, hi - 1)]
            weights = {edge: 0.1 + 0.01 * k for k, edge in enumerate(path)}
            gp = WeightedGraph(N, [(i, j, w) for (i, j), w in weights.items()])
            overlay = WeightedGraph(N, [(i, j, 0.5 + 2.0 * weights.get((i, j), 0.0))
                                        for i in range(N) for j in range(i + 1, N)])
            for gc in (WeightedGraph.complete(N), overlay):
                report = analyze(LimasModel([[0.9, 0.2], [0.0, 1.1]], [[0.0], [1.0]],
                                            gp, gc, alpha=0.2))
                if report.lambda_p_paired is None:
                    continue
                paired += 1
                assert min(report.lambda_p_paired) >= 0.0, (N, parts)
                assert min(report.lambda_c_paired) >= 0.0, (N, parts)
                if gc is not overlay:
                    assert report.lambda_p_paired == report.lambda_p, (N, parts)
    assert paired == 148


def test_stacked_mode_quantities_match_per_mode_loops():
    from limas.linalg import determinant

    rng = np.random.default_rng(29)
    for _ in range(10):
        model = random_coupled_model(rng)
        spec = model.joint_spectrum
        K = rng.standard_normal((1, model.n))
        modes = [(model.A - lp * model.Ap, lc * (model.B @ K))
                 for lp, lc in zip(spec.lambda_p[1:], spec.lambda_c[1:])]
        radii = modal_radii(model, K)
        assert radii.tolist() == [spectral_radius(M + BK) for M, BK in modes]
        dets = necessary_check(model).dets
        assert dets == tuple(abs(determinant(M)) for M, _ in modes)


def test_analyze_runs_each_assumption_check_once(monkeypatch):
    # analyze, run twice, sufficient_check and necessary_check share the
    # model's cached checks: the controllability check runs once, and the
    # coupling check once per model, the construction's agreement check of
    # the declared alpha included
    calls = {"check_modal_controllability": 0, "coupling_check": 0}
    check = analysis.check_modal_controllability

    def counted_check(model):
        calls["check_modal_controllability"] += 1
        return check(model)

    coupling = LimasModel.coupling_check.func

    def counted_coupling(model):
        calls["coupling_check"] += 1
        return coupling(model)

    counted_property = functools.cached_property(counted_coupling)
    counted_property.__set_name__(LimasModel, "coupling_check")
    monkeypatch.setattr(analysis, "check_modal_controllability", counted_check)
    monkeypatch.setattr(LimasModel, "coupling_check", counted_property)
    model = four_agent_model()
    assert model.alpha is not None and calls["coupling_check"] == 1
    report = analyze(model)
    assert report.sufficient is not None and report.necessary is not None
    sufficient_check(model)
    necessary_check(model)
    analyze(model)
    assert calls == {"check_modal_controllability": 1, "coupling_check": 1}
    assert report.assumption_controllability is model.controllability_check
    assert (report.assumption_coupling, report.alpha) == model.coupling_check


def test_each_model_diagonalizes_its_laplacians_once(monkeypatch):
    # analyze and the three conditions read the model's one joint spectrum and
    # its one commute check; on path+star each access raises NotCommuting
    # anew from that cached check, and nothing is paired
    calls = {"simultaneous_diagonalize": 0, "commute_check": 0}
    for name in calls:
        def counted(*args, _stage=getattr(analysis, name), _name=name):
            calls[_name] += 1
            return _stage(*args)
        monkeypatch.setattr(analysis, name, counted)
    model = four_agent_model()
    report = analyze(model)
    assert report.certificate_method == "modal-radii"
    sufficient_check(model)
    necessary_check(model)
    modal_radii(model, [report.gain])
    analyze(model)
    assert calls == {"simultaneous_diagonalize": 1, "commute_check": 1}

    calls.update(dict.fromkeys(calls, 0))
    star = WeightedGraph(8, [(0, k, 1.0) for k in range(1, 8)])
    model = LimasModel([[1.1]], [[1.0]], WeightedGraph.path(8, 0.1), star, alpha=0.3)
    report = analyze(model)
    assert report.certificate_method == "projected-radius"
    assert report.assumption_commuting is model.commute_check
    assert calls == {"simultaneous_diagonalize": 0, "commute_check": 1}
    for condition in (sufficient_check, necessary_check,
                      lambda m: modal_radii(m, [report.gain])):
        with pytest.raises(NotCommuting):
            condition(model)
    analyze(model)
    assert calls == {"simultaneous_diagonalize": 0, "commute_check": 1}


# --- seeded verdict corpus ---------------------------------------------------------

# The verdict tally of verdict_corpus(seed=0, per_class=60) per class, as
# (consensusable, inconclusive, not-consensusable). A change that moves
# coverage shows here and names the models whose verdicts moved.
CORPUS_TALLY = {
    "scalar": (25, 28, 7),
    "proportional": (45, 14, 1),
    "free-ap": (0, 60, 0),
    "non-commuting": (0, 60, 0),
    "edge": (44, 15, 1),
}


@pytest.fixture(scope="module")
def corpus_reports():
    return {name: [(model, analyze(model)) for model in models]
            for name, models in verdict_corpus(seed=0, per_class=60).items()}


def _rebuilt(model: LimasModel, A=None, B=None, gp=None, gc=None, Ap=None) -> LimasModel:
    """``model`` with some parts replaced; a declared alpha is kept and sets Ap."""
    A = model.A if A is None else A
    if model.alpha is None and Ap is None:
        Ap = model.Ap
    return LimasModel(A, model.B if B is None else B, gp or model.gp, gc or model.gc,
                      Ap=None if model.alpha is not None else Ap, alpha=model.alpha)


def _relabelled(g: WeightedGraph, order: np.ndarray) -> WeightedGraph:
    return WeightedGraph(g.node_count, np.column_stack((order[g.i], order[g.j], g.w)))


def _verdict_variants(model: LimasModel, rng) -> dict[str, LimasModel]:
    """The model after a node relabelling, a similarity of the agent
    coordinates, B x 1e3 and communication weights x 1e-3."""
    order = rng.permutation(model.N).astype(float)
    Q = np.linalg.qr(rng.standard_normal((model.n, model.n)))[0]
    T = Q * rng.uniform(0.5, 2.0, model.n)
    T_inv = np.linalg.inv(T)
    return {
        "relabel": _rebuilt(model, gp=_relabelled(model.gp, order),
                            gc=_relabelled(model.gc, order)),
        "similarity": _rebuilt(model, A=T @ model.A @ T_inv, B=T @ model.B,
                               Ap=T @ model.Ap @ T_inv),
        "B x 1e3": _rebuilt(model, B=1e3 * model.B),
        "Lc x 1e-3": _rebuilt(model, gc=WeightedGraph(
            model.N, np.column_stack((model.gc.i, model.gc.j, 1e-3 * model.gc.w)))),
    }


def test_verdict_corpus_tally(corpus_reports):
    tally = {name: tuple(sum(report.verdict == verdict for _, report in reports)
                         for verdict in ("consensusable", "inconclusive", "not-consensusable"))
             for name, reports in corpus_reports.items()}
    assert tally == CORPUS_TALLY


def test_verdict_corpus_is_invariant(corpus_reports):
    # none of these changes the question, so none may change the answer
    rng = np.random.default_rng(1)
    moved = [(name, k, variant)
             for name, reports in corpus_reports.items()
             for k, (model, report) in enumerate(reports)
             for variant, other in _verdict_variants(model, rng).items()
             if analyze(other).verdict != report.verdict]
    assert moved == []


def test_verdict_corpus_is_sound(corpus_reports):
    # every certificate is stable for the exact referee and passes the oracle
    # (n = 1: clear of the rounding bound on both paths), and every n = 1
    # refutation leaves the exact stabilizing interval of the scalar loop empty
    refuted = 0
    for name, reports in corpus_reports.items():
        for k, (model, report) in enumerate(reports):
            if report.verdict == "consensusable":
                assert exact_schur_verdict(model, [report.gain]) == "stable", (name, k)
                radius = verify_gain(model, [report.gain]).max_radius
                assert radius < 1.0, (name, k)
                if model.n == 1:
                    # both radii clear one by more than the rounding bound
                    for r in (report.certified_radius, radius):
                        assert analysis._rounding_refusal(model, report.gain, r) is None, (name, k)
            elif report.verdict == "not-consensusable" and model.n == 1:
                refuted += 1
                k_lo, k_hi = exact_stabilizing_interval(
                    model.A.item(), model.Ap.item() * model.laplacian_p,
                    abs(model.B.item()) * model.laplacian_c)
                assert k_lo >= k_hi, (name, k)
    assert refuted == 7


# --- the exact referee --------------------------------------------------------------

# (A, B, physical weight, alpha, gain, modal radius) of two N = 2, n = 2 draws
# whose Riccati gains certify though the exact loop is unstable: the mode
# cancels terms of about 1e15 down to O(1), so its computed radius means nothing
FALSE_N2_CERTIFICATES = {
    1373: ([[987651508444403.2, 1137537988925897.0],
            [670549124024540.9, -361956843032710.7]],
           [0.3379501619411569, -0.38300536135419305],
           0.9700412345162663, 0.5154420061837022,
           [-196.44729796559696, -139.8075162911196], 0.724),
    2096: ([[283718032827185.8, -185677354993546.34],
            [200005657168730.25, -63112312935290.086]],
           [-0.6227695530400859, -0.06907595451655246],
           0.7864666208151176, 0.6357548899874573,
           [1879.5014390488668, -1367.803370775896], 0.753),
}


@pytest.mark.parametrize("draw", sorted(FALSE_N2_CERTIFICATES))
def test_exact_referee_finds_the_n2_false_certificates_unstable(draw):
    # documents an open defect: modal_radii reads these loops well inside the circle
    A, B, weight, alpha, K, radius = FALSE_N2_CERTIFICATES[draw]
    model = LimasModel(A, np.array(B)[:, None], WeightedGraph(2, [(0, 1, weight)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=alpha)
    assert float(modal_radii(model, [K]).max()) == pytest.approx(radius, abs=5e-4)
    assert exact_schur_verdict(model, [K]) == "unstable"


@pytest.mark.xfail(strict=True, reason="open item 17 of ROADMAP.md: no rounding bound "
                                       "refuses an n >= 2 certificate yet")
@pytest.mark.parametrize("draw", sorted(FALSE_N2_CERTIFICATES))
def test_analyze_does_not_certify_the_n2_false_certificates(draw):
    A, B, weight, alpha, _, _ = FALSE_N2_CERTIFICATES[draw]
    model = LimasModel(A, np.array(B)[:, None], WeightedGraph(2, [(0, 1, weight)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=alpha)
    report = analyze(model)
    assert report.verdict == "inconclusive"
    assert report.certificate_detail


def test_exact_referee_leaves_a_loop_on_the_circle_undecided():
    # with alpha = 0 and K = 0 the one deviation mode is A, a quarter turn
    rotation = LimasModel([[0.0, -1.0], [1.0, 0.0]], [[0.0], [1.0]],
                          WeightedGraph(2, [(0, 1, 0.5)]), WeightedGraph(2, [(0, 1, 1.0)]),
                          alpha=0.0)
    assert exact_schur_verdict(rotation, [[0.0, 0.0]]) is None


def test_exact_referee_agrees_with_verify_gain_on_random_gains():
    # non-commuting pairs, so the loop has no modes to split it: random gains
    # whose float radius is at least 1e-3 from one, where rounding cannot
    # move it across
    rng = np.random.default_rng(7)
    verdicts = []
    while len(verdicts) < 40:
        N, n = int(rng.integers(3, 8)), int(rng.integers(2, 4))
        gp, gc = _non_commuting_graphs(rng, N)
        model = LimasModel(random_state_matrix(rng, n), random_input(rng, n), gp, gc,
                           alpha=float(rng.uniform(-0.25, 0.25)))
        K = rng.uniform(-1.0, 1.0, (1, n))
        check = verify_gain(model, K)
        if abs(check.max_radius - 1.0) < 1e-3:
            continue
        verdicts.append(exact_schur_verdict(model, K))
        assert verdicts[-1] == ("stable" if check.stable else "unstable")
    assert {"stable", "unstable"} == set(verdicts)


def test_exact_referee_agrees_with_an_exact_jury_test():
    # N = 2: the one deviation mode is A - 2w Ap + 2c BK; its characteristic
    # polynomial z^2 - tr z + det is Schur stable exactly when |det| < 1 and
    # 1 -+ tr + det > 0 (n = 2), and |A - 2w Ap + 2c BK| < 1 when n = 1
    from fractions import Fraction

    rng = np.random.default_rng(29)
    verdicts = []
    for _ in range(40):
        n = int(rng.integers(1, 3))
        A, Ap = rng.uniform(-1.5, 1.5, (n, n)), rng.uniform(-0.5, 0.5, (n, n))
        B, K = rng.uniform(-1.0, 1.0, (n, 1)), rng.uniform(-2.0, 2.0, (1, n))
        w, c = rng.uniform(0.1, 1.0, 2)
        model = LimasModel(A, B, WeightedGraph(2, [(0, 1, w)]),
                           WeightedGraph(2, [(0, 1, c)]), Ap=Ap)
        exact = np.vectorize(Fraction, otypes=[object])
        mode = exact(A) - 2 * Fraction(w) * exact(Ap) + 2 * Fraction(c) * (exact(B) @ exact(K))
        if n == 1:
            stable = abs(mode[0, 0]) < 1
        else:
            tr = mode[0, 0] + mode[1, 1]
            det = mode[0, 0] * mode[1, 1] - mode[0, 1] * mode[1, 0]
            stable = abs(det) < 1 and 1 - tr + det > 0 and 1 + tr + det > 0
        verdicts.append(exact_schur_verdict(model, K))
        assert verdicts[-1] == ("stable" if stable else "unstable")
    assert {"stable", "unstable"} <= set(verdicts)
