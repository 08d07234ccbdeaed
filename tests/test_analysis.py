"""Unit and property tests for the consensusability analysis core."""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from limas import (
    LimasModel,
    SpectralPair,
    WeightedGraph,
    alpha_spectrum,
    analyze,
    check_proportional_coupling,
    modal_radii,
    necessary_check,
    scalar_check,
    sigma_critical,
    solve_mare,
    sufficient_check,
    synthesize_gain,
)
from limas import analysis, verify_gain
from limas.analysis import CONNECTIVITY_FLOOR, COUPLING_RTOL
from limas.errors import (
    AssumptionViolated,
    DegenerateInput,
    Divergence,
    NotControllable,
    SynthesisFailed,
)
from limas.model_io import model_from_dict
from conftest import (
    A_SHOWCASE,
    B_SHOWCASE,
    cycle4_graph,
    fixed_point_mare,
    four_agent_model,
    mare_inequality_margin,
    random_coupled_model,
    spectral_radius,
)


# --- alpha spectrum ---------------------------------------------------------

def test_alpha_spectrum_showcase():
    asp = alpha_spectrum(0.3, [0.2, 0.2, 0.4])
    assert np.allclose(asp.alpha_i, [0.94, 0.94, 0.88], atol=1e-12)
    assert asp.alpha_min == pytest.approx(0.88, abs=1e-12)
    assert asp.alpha_max == pytest.approx(0.94, abs=1e-12)


def test_alpha_spectrum_decoupled():
    asp = alpha_spectrum(0.0, [0.5, 1.2, 3.0])
    assert np.allclose(asp.alpha_i, 1.0)
    assert asp.alpha_min == asp.alpha_max == 1.0


def test_alpha_spectrum_exact_cancellation():
    asp = alpha_spectrum(5.0, [0.2])
    assert asp.alpha_i[0] == 0.0
    assert asp.alpha_min == asp.alpha_max == 0.0


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
    spec = showcase_model.spectral_pair()
    res = sufficient_check(showcase_model, spec)
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
    spec = model.spectral_pair()
    res = sufficient_check(model, spec)
    assert res.holds
    assert res.lhs == pytest.approx(0.0, abs=1e-15)
    assert res.sigma_c == 0.0
    assert res.rhs > 0.0


def test_sufficient_check_negative_rhs_fails():
    # strong coupling spread plus a hard instability makes the bound vacuous
    A = np.array([[3.0, 1.0], [0.0, 0.3]])
    model = LimasModel(A, B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), alpha=3.0)
    spec = model.spectral_pair()
    res = sufficient_check(model, spec)
    assert res.rhs <= 0.0
    assert not res.holds


def test_sufficient_check_degenerate_coupling():
    # alpha * lambda_p = 1 for every mode: all mode matrices vanish.
    # Only scalar dynamics keep the zero mode controllable, so n = 1 here.
    model = LimasModel([[2.0]], [[1.0]],
                       WeightedGraph(2, [(0, 1, 0.1)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=5.0)
    spec = model.spectral_pair()
    res = sufficient_check(model, spec)
    assert res.holds and res.k_star == 0.0
    synth = synthesize_gain(model, spec, sufficient=res)
    assert np.array_equal(synth.K, np.zeros((1, 1)))
    assert np.max(synth.modal_radii) == pytest.approx(0.0, abs=1e-12)


def test_sufficient_check_uncontrollable_mode():
    # Ap = A and a physical mode at exactly 1 zero out the mode dynamics
    model = LimasModel(A_SHOWCASE, B_SHOWCASE,
                       WeightedGraph(2, [(0, 1, 0.5)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=1.0)
    spec = model.spectral_pair()
    with pytest.raises(AssumptionViolated) as err:
        sufficient_check(model, spec)
    assert err.value.which == 2


def test_sufficient_check_nonproportional_coupling():
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), Ap=[[0.0, 1.0], [0.0, 0.0]])
    spec = model.spectral_pair()
    with pytest.raises(AssumptionViolated) as err:
        sufficient_check(model, spec)
    assert err.value.which == 3


def test_conditions_share_the_connectivity_floor(showcase_model):
    spec = showcase_model.spectral_pair()
    lam_c = spec.lambda_c.copy()
    lam_c[1] = CONNECTIVITY_FLOOR
    weak = SpectralPair(spec.phi, spec.lambda_p, lam_c)
    raised = []
    for check in (sufficient_check, necessary_check):
        with pytest.raises(AssumptionViolated) as err:
            check(showcase_model, weak)
        raised.append((err.value.which, str(err.value)))
    assert raised[0] == raised[1] and raised[0][0] == 0
    # the floor is checked before proportional coupling
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), Ap=[[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(AssumptionViolated) as err:
        sufficient_check(model, weak)
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
    # for a = 2, sigma = 0.8: P (1 - a^2 + sigma a^2) = q, so P = 5 q
    sol = solve_mare([[2.0]], [[1.0]], 0.8)
    assert sol.P[0, 0] == pytest.approx(5e-6, rel=1e-7)
    sol = solve_mare([[2.0]], [[1.0]], 0.8, Q=[[3.0]])
    assert sol.P[0, 0] == pytest.approx(15.0, rel=1e-7)


@pytest.mark.parametrize("sigma", [0.76, 0.8, 0.9])
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
        + analysis.MARE_Q_SCALE * np.eye(len(P))
    return float(np.linalg.norm(image - P) / np.linalg.norm(P))


def test_solve_mare_matches_fixed_point_property():
    # Newton along the sigma continuation solves the MARE to rounding and
    # agrees with the plain fixed point wherever that one converges
    compared = 0
    for Abar, B, sigma in _random_mare_instances(5, 200, "above"):
        sol = solve_mare(Abar, B, sigma)
        residual = _relative_riccati_residual(Abar, B, sigma, sol.P)
        assert residual <= 1e-10
        assert sol.residual == pytest.approx(residual, rel=1e-3, abs=1e-15)
        try:
            ref = fixed_point_mare(Abar, B, sigma)
        except Divergence:
            continue
        compared += 1
        assert np.linalg.norm(sol.P - ref.P) <= 1e-6 * np.linalg.norm(ref.P)
    assert compared >= 150


def test_solve_mare_near_critical_property():
    # just above sigma_c the continuation makes more than one intermediate
    # stop on about half of these instances, each with one Newton step; the
    # target must still get the stabilizing solution
    for Abar, B, sigma in _random_mare_instances(7, 200, "near"):
        sol = solve_mare(Abar, B, sigma)
        assert _relative_riccati_residual(Abar, B, sigma, sol.P) <= 1e-10
        PB = sol.P @ B
        F = Abar - B @ (PB.T @ Abar) / float((B.T @ PB).item())
        stein = sigma * np.kron(F.T, F.T) + (1.0 - sigma) * np.kron(Abar.T, Abar.T)
        assert spectral_radius(stein) < 1.0


def test_solve_mare_below_critical_property(monkeypatch):
    # the exact early exit refuses every below-critical sigma, and with the
    # exit bypassed the continuation's step floor still ends in Divergence
    instances = list(_random_mare_instances(6, 152, "below"))
    for Abar, B, sigma in instances:
        with pytest.raises(Divergence) as err:
            solve_mare(Abar, B, sigma)
        assert err.value.iterations == 0
    monkeypatch.setattr(analysis, "sigma_critical", lambda A, alpha_max: 0.0)
    for Abar, B, sigma in instances[:30]:
        with pytest.raises(Divergence) as err:
            solve_mare(Abar, B, sigma)
        assert err.value.iterations > 0


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


@pytest.fixture(scope="module")
def workloads():
    # registered while loaded: its dataclasses look their module up by name
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("limas_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4])
def test_near_critical_benchmark_model_is_certified(workloads, d, n):
    # the benchmark's N = 8 cycle/complete model at sigma_c + d, which the
    # 100 000-step fixed point could not solve at d = 1e-4; one Newton step
    # per intermediate sigma keeps the Stein solves within 25
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

def test_synthesize_gain_showcase(showcase_model):
    spec = showcase_model.spectral_pair()
    synth = synthesize_gain(showcase_model, spec)
    assert float(synth.modal_radii.max()) < 1.0
    # returned P solves the strict inequality for every reported mode margin
    P = synth.mare.P
    assert np.min(np.linalg.eigvalsh(P)) > 1e-10 * np.linalg.norm(P)
    suff = sufficient_check(showcase_model, spec)
    Abar = suff.alpha.alpha_max * showcase_model.A
    for sigma_i in suff.sigma_modes:
        assert mare_inequality_margin(Abar, showcase_model.B, sigma_i, P) <= -1e-12


def test_synthesize_gain_requires_sufficient():
    A = np.array([[3.0, 1.0], [0.0, 0.3]])
    model = LimasModel(A, B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), alpha=3.0)
    spec = model.spectral_pair()
    with pytest.raises(SynthesisFailed):
        synthesize_gain(model, spec)


def test_synthesis_margin_at_or_below_critical_is_divergence(showcase_model):
    # the margin is clipped into [0, 1]; solve_mare refuses it up front
    spec = showcase_model.spectral_pair()
    suff = sufficient_check(showcase_model, spec)
    assert suff.sigma_c > 0.0
    for margin in (suff.sigma_c, 0.5 * suff.sigma_c, -1e-17):
        forged = dataclasses.replace(suff, sigma_modes=np.full_like(suff.sigma_modes, margin))
        with pytest.raises(Divergence) as err:
            synthesize_gain(showcase_model, spec, sufficient=forged)
        assert err.value.iterations == 0


def test_synthesis_soundness_randomized():
    # whenever synthesis returns, every mode is verified stable; and the
    # sufficient verdict always leads to a successful synthesis
    rng = np.random.default_rng(31)
    positives = 0
    for _ in range(120):
        model = random_coupled_model(rng, n=int(rng.integers(1, 5)))
        spec = model.spectral_pair()
        try:
            res = sufficient_check(model, spec)
        except AssumptionViolated:
            continue
        if not res.holds:
            continue
        positives += 1
        synth = synthesize_gain(model, spec, sufficient=res)
        assert float(synth.modal_radii.max()) < 1.0
    assert positives >= 10


# --- necessary condition -------------------------------------------------------

def test_necessary_check_showcase(showcase_model):
    spec = showcase_model.spectral_pair()
    res = necessary_check(showcase_model, spec)
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
    spec = model.spectral_pair()
    res = necessary_check(model, spec)
    lp = np.sort(spec.lambda_p[1:])
    expected = abs(np.linalg.det(Ap)) * abs(res.gamma_c * lp[0]**2 - lp[-1]**2)
    assert res.lhs == pytest.approx(expected, rel=1e-9)


def test_necessary_check_decoupled_equal_dets():
    gp = cycle4_graph()
    gc = WeightedGraph.complete(4, 0.7)
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, gp, gc, alpha=0.0)
    spec = model.spectral_pair()
    res = necessary_check(model, spec)
    det_a = abs(np.linalg.det(A_SHOWCASE))
    assert res.det_min == pytest.approx(det_a, rel=1e-12)
    assert res.det_max == pytest.approx(det_a, rel=1e-12)
    assert res.lhs == pytest.approx(abs(res.gamma_c - 1.0) * det_a, rel=1e-9, abs=1e-12)


def test_necessary_check_skips_coupling_assumption():
    # non-proportional Ap must not block the necessary condition
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), Ap=[[0.1, 0.2], [0.05, 0.3]])
    spec = model.spectral_pair()
    res = necessary_check(model, spec)
    assert isinstance(res.holds, bool)


def test_necessary_check_uncontrollable_mode():
    model = LimasModel(A_SHOWCASE, B_SHOWCASE,
                       WeightedGraph(2, [(0, 1, 0.5)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=1.0)
    spec = model.spectral_pair()
    with pytest.raises(AssumptionViolated) as err:
        necessary_check(model, spec)
    assert err.value.which == 2


# --- scalar conditions ----------------------------------------------------------

def test_scalar_check_path_example():
    res = scalar_check(1.2, [0.0, 0.0], [1.0, 3.0])
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
    res = scalar_check(0.5, [0.0, 0.0, 0.0], [0.8, 1.0, 1.4])
    assert res.c1
    assert res.k_plus[0] < 0.0 < res.k_plus[1]
    assert res.necessary


def test_scalar_check_wide_physical_spread():
    # a physical spread of two or more defeats both interval conditions
    res = scalar_check(0.0, [0.5, 2.6], [1.0, 3.0])
    assert not res.c1 and not res.c2
    res = scalar_check(2.0, [0.5, 2.6], [1.0, 3.0])
    assert not res.c1 and not res.c2


def test_scalar_check_necessary_failure():
    res = scalar_check(0.0, [5.0, 15.0], [3.0, 3.0])
    assert not res.necessary


# --- modal radii -----------------------------------------------------------------

def test_modal_radii_decoupled_zero_gain():
    model = four_agent_model(alpha=0.0)
    spec = model.spectral_pair()
    radii = modal_radii(model, spec, np.zeros((1, 2)))
    assert np.allclose(radii, 1.5, atol=1e-12)  # spectral radius of A


def test_modal_radii_scalar_formula():
    model = LimasModel([[0.9]], [[1.0]], cycle4_graph(),
                       WeightedGraph.complete(4), alpha=1.0)
    spec = model.spectral_pair()
    k = -0.1
    radii = modal_radii(model, spec, [[k]])
    expected = [abs(0.9 - lp * 0.9 + lc * k)
                for lp, lc in zip(spec.lambda_p[1:], spec.lambda_c[1:])]
    assert np.allclose(radii, expected, atol=1e-12)


def test_modal_radii_showcase_certificate(showcase_model):
    spec = showcase_model.spectral_pair()
    synth = synthesize_gain(showcase_model, spec)
    radii = modal_radii(showcase_model, spec, synth.K)
    assert np.allclose(radii, synth.modal_radii, atol=1e-12)
    assert float(radii.max()) < 1.0


# --- model construction and full analysis -----------------------------------------

def test_model_requires_connected_communication_graph():
    with pytest.raises(ValueError, match="communication graph must be connected"):
        LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                   WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]), alpha=0.3)


def test_model_alpha_consistency():
    with pytest.raises(ValueError, match="disagree"):
        LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                   WeightedGraph.complete(4), Ap=0.4 * A_SHOWCASE, alpha=0.3)
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                       WeightedGraph.complete(4), Ap=0.3 * A_SHOWCASE, alpha=0.3)
    assert model.alpha == 0.3


def test_coupling_gate_is_one_rule():
    # the model's Ap/alpha agreement and assumption 3 decide with one gate
    gate = COUPLING_RTOL * max(1.0, float(np.linalg.norm(A_SHOWCASE)))
    drift = np.array([[0.0, 0.0], [1.0, 0.0]])  # unit norm, orthogonal to A
    gp, gc = cycle4_graph(), WeightedGraph.complete(4)
    for scale, holds in ((1.0 - 1e-3, True), (1.0 + 1e-3, False)):
        Ap = 0.3 * A_SHOWCASE + scale * gate * drift
        fitted, _ = check_proportional_coupling(LimasModel(A_SHOWCASE, B_SHOWCASE,
                                                           gp, gc, Ap=Ap))
        assert fitted.holds == holds
        if holds:
            model = LimasModel(A_SHOWCASE, B_SHOWCASE, gp, gc, Ap=Ap, alpha=0.3)
            assert check_proportional_coupling(model)[0].holds
        else:
            with pytest.raises(ValueError, match="disagree"):
                LimasModel(A_SHOWCASE, B_SHOWCASE, gp, gc, Ap=Ap, alpha=0.3)


def test_coupling_gate_is_free_of_scale():
    # a relative drift of 37 fails at every scale of A, also far below unit
    drift = np.array([[0.0, 1.0], [0.0, 0.0]])
    gp, gc = cycle4_graph(), WeightedGraph.complete(4)
    for c in (1.0, 1e-6, 1e-12):
        A = c * A_SHOWCASE
        Ap = 0.3 * A + 100.0 * c * drift
        check, fitted = check_proportional_coupling(LimasModel(A, B_SHOWCASE, gp, gc, Ap=Ap))
        assert not check.holds and fitted is None
        with pytest.raises(ValueError, match="disagree"):
            LimasModel(A, B_SHOWCASE, gp, gc, Ap=Ap, alpha=0.3)


def test_model_rejects_non_finite_alpha():
    # with Ap given, NaN would pass the drift check, since nan > tol is False
    g = WeightedGraph(2, [(0, 1, 1.0)])
    for alpha in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="alpha must be finite"):
            LimasModel([[1.1]], [[1.0]], g, g, Ap=[[0.1]], alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be finite"):
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
    def degenerate(P, B, A):
        raise DegenerateInput("B'PB = 0 is not safely positive")

    monkeypatch.setattr(analysis, "gain_kernel", degenerate)
    report = analyze(showcase_model)
    assert report.synthesis_error == "B'PB = 0 is not safely positive"
    assert report.gain is None and report.verdict == "inconclusive"


def test_analyze_showcase_with_projector_style_communication():
    # complete graph with weight 1/4: communication spectrum {0, 1, 1, 1};
    # the verdicts must match the unit-weight variant
    model = four_agent_model(gc=WeightedGraph.complete(4, 0.25))
    report = analyze(model)
    assert np.allclose(sorted(report.lambda_c), [0.0, 1.0, 1.0, 1.0], atol=1e-9)
    assert report.sufficient.holds and report.necessary.holds
    assert report.verdict == "consensusable"


def test_synthesize_gain_single_mode_midpoint_placement():
    # one deviation mode: the midpoint gain scale cancels it exactly
    model = LimasModel([[1.3]], [[2.0]], WeightedGraph(2, [(0, 1, 0.3)]),
                       WeightedGraph(2, [(0, 1, 0.8)]), alpha=0.5)
    spec = model.spectral_pair()
    res = sufficient_check(model, spec)
    assert res.holds
    assert res.k_star == pytest.approx(0.7 / 1.6, rel=1e-12)
    synth = synthesize_gain(model, spec, sufficient=res)
    assert float(synth.modal_radii.max()) == pytest.approx(0.0, abs=1e-9)


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
    assert report.scalar is not None
    if report.scalar.k_recommended is not None:
        assert report.gain is not None
        assert report.gain_source == "scalar-interval"


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


# --- cached per-model quantities -------------------------------------------------

def test_modal_controllability_matches_per_mode_tests():
    from limas import check_modal_controllability
    from limas.linalg import controllability_margin, is_controllable

    rng = np.random.default_rng(17)
    for _ in range(10):
        model = random_coupled_model(rng)
        check = check_modal_controllability(model)
        mats = [model.A - lam * model.Ap for lam in model.spectrum_p[1:]]
        assert check.residual == min(controllability_margin(M, model.B) for M in mats)
        assert check.holds == all(is_controllable(M, model.B) for M in mats)
    assert not model.spectrum_p.flags.writeable
    assert not model.modal_ctrb_sv.flags.writeable
    # Ap = A at the physical mode 1 zeroes the mode matrix
    model = LimasModel(A_SHOWCASE, B_SHOWCASE, WeightedGraph(2, [(0, 1, 0.5)]),
                       WeightedGraph(2, [(0, 1, 1.0)]), alpha=1.0)
    check = check_modal_controllability(model)
    assert not check.holds and "[1.0]" in check.detail


def test_stacked_mode_quantities_match_per_mode_loops():
    from limas.linalg import determinant

    rng = np.random.default_rng(29)
    for _ in range(10):
        model = random_coupled_model(rng)
        spec = model.spectral_pair()
        K = rng.standard_normal((1, model.n))
        modes = [(model.A - lp * model.Ap, lc * (model.B @ K))
                 for lp, lc in zip(spec.lambda_p[1:], spec.lambda_c[1:])]
        radii = modal_radii(model, spec, K)
        assert radii.tolist() == [spectral_radius(M + BK) for M, BK in modes]
        dets = necessary_check(model, spec).dets
        assert dets == tuple(abs(determinant(M)) for M, _ in modes)
