"""Tests for the brute-force verification oracle."""

from __future__ import annotations

import numpy as np
import pytest

from limas import (
    LimasModel,
    WeightedGraph,
    laplacian,
    modal_radii,
    projected_deviation_matrix,
    scalar_grid_search,
    verify_gain,
)
from limas.errors import NotDeviationInvariant, NotScalar
from limas.oracle import scalar_model_grid_search
from conftest import cycle4_graph, four_agent_model, random_coupled_model


def test_projected_identity_scaling():
    out = projected_deviation_matrix(1.7 * np.eye(5))
    assert np.allclose(out, 1.7 * np.eye(4), atol=1e-12)


def test_projected_path_spectrum():
    # a*I + k*Lc on the deviation subspace has eigenvalues a + k*lambda
    Lc = laplacian(WeightedGraph.path(3))
    out = projected_deviation_matrix(1.2 * np.eye(3) - 0.5 * Lc)
    values = np.sort(np.linalg.eigvalsh(out))
    assert np.allclose(values, [1.2 - 1.5, 1.2 - 0.5], atol=1e-10)


def test_projected_cycle_spectrum():
    a = 0.9
    Atil = a * np.eye(4) - laplacian(cycle4_graph(0.1))
    values = np.sort(np.linalg.eigvalsh(projected_deviation_matrix(Atil)))
    assert np.allclose(values, [a - 0.4, a - 0.2, a - 0.2], atol=1e-10)


def test_projected_rejects_non_invariant():
    with pytest.raises(NotDeviationInvariant):
        projected_deviation_matrix(np.diag([1.0, 2.0, 3.0]))


def test_projected_gate_scales_with_matrix_norm():
    # the all-ones direction is exactly invariant; only row-sum rounding
    # (about 7e-8 at this weight) separates it from zero
    w = np.pi * 1e6
    Lc = laplacian(WeightedGraph.complete(40, weight=w))
    values = np.linalg.eigvalsh(projected_deviation_matrix(1.2 * np.eye(40) - 0.5 * Lc))
    assert np.allclose(values, 1.2 - 0.5 * 40 * w, rtol=1e-12)


def test_projection_is_completion_independent():
    rng = np.random.default_rng(37)
    for _ in range(15):
        N = int(rng.integers(2, 8))
        L = laplacian(WeightedGraph.complete(N, float(rng.uniform(0.2, 2.0))))
        Atil = float(rng.uniform(-1, 1)) * np.eye(N) + float(rng.uniform(-1, 1)) * L
        spectrum_default = np.sort(np.linalg.eigvals(projected_deviation_matrix(Atil)))
        # alternative completion from a seeded random orthogonal factor
        M = np.column_stack([np.ones(N) / np.sqrt(N), rng.standard_normal((N, N - 1))])
        Q, _ = np.linalg.qr(M)
        Q[:, 0] = np.ones(N) / np.sqrt(N)
        spectrum_other = np.sort(np.linalg.eigvals(projected_deviation_matrix(Atil, basis=Q)))
        assert np.allclose(spectrum_default, spectrum_other, atol=1e-9)


def test_grid_search_interval_example():
    # unstable scalar agents on a path: the stabilizing run sits in (-0.733, -0.2)
    result = scalar_grid_search(1.2, np.zeros((3, 3)),
                                laplacian(WeightedGraph.path(3)),
                                lo=-2.0, hi=2.0, count=4001)
    intervals = result.stabilizing_intervals()
    assert len(intervals) == 1
    lo, hi = intervals[0]
    spacing = 4.0 / 4000
    assert lo == pytest.approx(-2.2 / 3.0, abs=2 * spacing)
    assert hi == pytest.approx(-0.2, abs=2 * spacing)
    assert result.best_radius < 1.0
    assert lo <= result.best_k <= hi


def test_grid_search_stable_origin():
    result = scalar_grid_search(0.5, np.zeros((4, 4)),
                                laplacian(WeightedGraph.complete(4, 0.3)),
                                lo=-1.0, hi=1.0, count=2001)
    assert 0.0 in result.stabilizing_k


def test_grid_search_respects_grid_order():
    res = scalar_grid_search(0.5, np.zeros((3, 3)),
                             laplacian(WeightedGraph.path(3)),
                             lo=-1.0, hi=1.0, count=201)
    assert np.all(np.diff(res.stabilizing_k) > 0)


def test_verify_gain_agrees_with_modal_radii(showcase_model):
    from limas import synthesize_gain
    spec = showcase_model.spectral_pair()
    synth = synthesize_gain(showcase_model, spec)
    check = verify_gain(showcase_model, synth.K)
    assert check.stable
    assert check.max_radius == pytest.approx(float(synth.modal_radii.max()), abs=1e-8)


def test_verify_gain_flags_unstable_zero_gain():
    model = four_agent_model(alpha=0.0)  # decoupled, rho(A) = 1.5
    check = verify_gain(model, np.zeros((1, 2)))
    assert not check.stable
    assert check.max_radius == pytest.approx(1.5, abs=1e-9)


def test_verify_gain_detects_planted_marginal_mode():
    # scalar pair: the single deviation mode sits at a + 2*w_c*k
    model = LimasModel([[0.5]], [[1.0]], WeightedGraph(2, [(0, 1, 0.1)]),
                       WeightedGraph(2, [(0, 1, 0.5)]), alpha=0.0)
    check = verify_gain(model, [[0.51]])
    assert not check.stable
    assert check.max_radius == pytest.approx(1.01, abs=1e-10)


def test_verify_gain_matches_modal_radii_on_random_models():
    rng = np.random.default_rng(41)
    for _ in range(20):
        model = random_coupled_model(rng, n=int(rng.integers(1, 4)))
        spec = model.spectral_pair()
        K = rng.uniform(-1.0, 1.0, (1, model.n))
        radii = modal_radii(model, spec, K)
        check = verify_gain(model, K)
        assert check.max_radius == pytest.approx(float(radii.max()), abs=1e-8)


def test_scalar_model_grid_search_requires_n1(showcase_model):
    with pytest.raises(NotScalar):
        scalar_model_grid_search(showcase_model)


def test_scalar_model_grid_search_folds_coefficients():
    # b = 2 doubles the communication term, halving stabilizing gains
    gp = WeightedGraph(3, [(0, 1, 0.2), (1, 2, 0.2), (0, 2, 0.2)])
    gc = WeightedGraph.complete(3)
    m1 = LimasModel([[1.2]], [[1.0]], gp, gc, alpha=0.0)
    m2 = LimasModel([[1.2]], [[2.0]], gp, gc, alpha=0.0)
    r1 = scalar_model_grid_search(m1, lo=-1.0, hi=1.0, count=4001)
    r2 = scalar_model_grid_search(m2, lo=-1.0, hi=1.0, count=4001)
    iv1 = r1.stabilizing_intervals()
    iv2 = r2.stabilizing_intervals()
    assert len(iv1) == 1 and len(iv2) == 1
    assert iv2[0][0] == pytest.approx(iv1[0][0] / 2.0, abs=2e-3)
    assert iv2[0][1] == pytest.approx(iv1[0][1] / 2.0, abs=2e-3)
