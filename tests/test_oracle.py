"""Tests for the brute-force verification oracle."""

from __future__ import annotations

import tracemalloc

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
from limas.errors import NotDeviationInvariant, NotScalar, ShapeMismatch
from limas import oracle
from limas.linalg import in_completion_basis
from limas.oracle import GRID_BLOCK_FLOATS, scalar_model_grid_search
from limas.simulator import closed_loop_matrix
from conftest import (
    copying_completion_basis,
    cycle4_graph,
    exact_stabilizing_interval,
    four_agent_model,
    kron_closed_loop,
    ones_completion,
    random_connected_graph,
    random_coupled_model,
    random_input,
    random_scalar_instance,
    random_state_matrix,
    signed_entries,
)


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


def test_projected_gate_is_free_of_scale():
    # non-invariance is rejected far below unit norm too
    for c in (1e-9, 1e-15):
        with pytest.raises(NotDeviationInvariant):
            projected_deviation_matrix(c * np.diag([1.0, 2.0, 3.0]))
    assert not projected_deviation_matrix(np.zeros((3, 3))).any()


def test_projected_blocks_match_inline_projection():
    # the one projection is the completion's rank-n update, bit for bit, and
    # the full completion product the referee formed inline, to rounding
    rng = np.random.default_rng(53)
    eps = np.finfo(float).eps
    for n in (1, 2, 4):
        for _ in range(5):
            model = random_coupled_model(rng, N=int(rng.integers(2, 9)), n=n)
            M = closed_loop_matrix(model, rng.uniform(-1.0, 1.0, (1, n)))
            psi = np.kron(ones_completion(model.N), np.eye(n))
            expected = (psi.T @ M @ psi)[n:, n:]
            out = projected_deviation_matrix(M, n)
            assert out.shape == expected.shape
            assert out.tobytes() == in_completion_basis(M, n)[n:, n:].tobytes()
            assert np.abs(out - expected).max() <= 4 * model.N * n * eps * np.linalg.norm(M, 2)


@pytest.mark.parametrize("N, n", [(N, n) for n in (1, 2, 3, 4) for N in (2, 5, 17, 40)]
                         + [(2, 8), (17, 8)])
def test_closed_loop_and_projection_match_the_copying_references(N, n):
    # the block-by-block assembly and the in-place reflector update give the
    # bits of the np.kron expression and of the copying update, signed zeros
    # included; each entry of A, Ap, B and K is negative, zero and positive
    # in one of the three draws
    rng = np.random.default_rng([N, n])
    for shift in range(3):
        gp = random_connected_graph(rng, N)
        gc = random_connected_graph(rng, N, w_lo=0.1, w_hi=1.0)
        model = LimasModel(signed_entries(rng, (n, n), shift), signed_entries(rng, (n, 1), shift + 1),
                           gp, gc, Ap=signed_entries(rng, (n, n), shift + 2))
        K = signed_entries(rng, (1, n), shift)
        loop = kron_closed_loop(model, K)
        assert closed_loop_matrix(model, K).tobytes() == loop.tobytes()
        moved = copying_completion_basis(loop, n)
        assert in_completion_basis(loop, n).tobytes() == moved.tobytes()
        assert projected_deviation_matrix(loop, n).tobytes() == moved[n:, n:].tobytes()
        radius = float(np.max(np.abs(np.linalg.eigvals(moved[n:, n:]))))
        assert verify_gain(model, K).max_radius == radius


def test_verify_gain_radius_matches_the_dense_projection():
    # the radius read from the rank-n update against psi = ones_completion(N) (x) I_n
    rng = np.random.default_rng(83)
    models = [random_coupled_model(rng, N=int(rng.integers(2, 13)), n=n)
              for n in (1, 2, 3) for _ in range(8)]
    models.append(LimasModel([[1.0, 2.0], [0.0, 1.5]], [[0.0], [1.0]],
                             WeightedGraph.cycle(64, 0.1), WeightedGraph.complete(64), alpha=0.3))
    for model in models:
        K = rng.uniform(-1.0, 1.0, (1, model.n)) / model.N
        psi = np.kron(ones_completion(model.N), np.eye(model.n))
        dense = (psi.T @ closed_loop_matrix(model, K) @ psi)[model.n:, model.n:]
        expected = float(np.max(np.abs(np.linalg.eigvals(dense))))
        check = verify_gain(model, K)
        assert abs(check.max_radius - expected) <= 1e-13 * max(expected, 1.0)
        assert check.stable == (check.max_radius < 1.0)


def test_projected_rejects_a_leaking_block_row():
    rng = np.random.default_rng(59)
    model = random_coupled_model(rng, N=5, n=2)
    M = closed_loop_matrix(model, [[0.3, -0.2]])
    projected_deviation_matrix(M, 2)
    leaking = M.copy()
    leaking[2:4, :2] += 1e-3 * np.linalg.norm(M)  # block row 1 now moves consensus
    with pytest.raises(NotDeviationInvariant):
        projected_deviation_matrix(leaking, 2)
    with pytest.raises(ShapeMismatch):
        projected_deviation_matrix(M, 3)


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
        spectrum_other = np.sort(np.linalg.eigvals((Q.T @ Atil @ Q)[1:, 1:]))
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


def test_stabilizing_intervals_split_at_a_gap():
    # grid spacing 0.5: a step of more than 1.5 spacings starts a new run
    result = oracle.GridSearchResult(-2.0, 2.0, 9, np.array([-2.0, -1.5, -1.0, 0.5, 1.0, 2.0]),
                                     -1.5, 0.2)
    assert result.stabilizing_intervals() == [(-2.0, -1.0), (0.5, 1.0), (2.0, 2.0)]


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


def test_grid_search_matches_exact_stabilizing_interval():
    # on random, mostly non-commuting scalar instances the grid's stabilizing
    # run ends within one spacing of the exact interval's ends
    rng = np.random.default_rng(2024)
    non_empty = 0
    for _ in range(12):
        a, gp, gc = random_scalar_instance(rng)
        Lp, Lc = laplacian(gp), laplacian(gc)
        k_lo, k_hi = exact_stabilizing_interval(a, Lp, Lc)
        result = scalar_grid_search(a, Lp, Lc)
        runs = result.stabilizing_intervals()
        if k_lo >= k_hi:
            assert runs == []
            continue
        non_empty += 1
        spacing = (result.hi - result.lo) / (result.count - 1)
        assert len(runs) == 1
        assert runs[0][0] == pytest.approx(k_lo, abs=spacing)
        assert runs[0][1] == pytest.approx(k_hi, abs=spacing)
    assert non_empty >= 8


def _two_array_grid(base, step, ks):
    """Radii of base + k*step over the grid, with the stack held twice."""
    stacked = base[None, :, :] + ks[:, None, None] * step[None, :, :]
    return np.max(np.abs(np.linalg.eigvalsh(stacked)), axis=1)


def _two_array_grid_search(a, Lp, Lc, ks):
    """Projection by the completion's deviation columns, then the two-array stack."""
    W = ones_completion(Lp.shape[0])[:, 1:]
    base = W.T @ (a * np.eye(Lp.shape[0]) - Lp) @ W
    step = W.T @ Lc @ W
    return _two_array_grid((base + base.T) / 2.0, (step + step.T) / 2.0, ks)


@pytest.mark.parametrize("N", [3, 8, 16, 24])
def test_grid_search_matches_two_array_formula(N):
    rng = np.random.default_rng(61 + N)
    for _ in range(3):
        a, gp, gc = random_scalar_instance(rng, N=N)
        Lp, Lc = laplacian(gp), laplacian(gc)
        result = scalar_grid_search(a, Lp, Lc, lo=-3.0, hi=3.0, count=601)
        ks = np.linspace(-3.0, 3.0, 601)
        # same projections: the one-stack build is the same arithmetic, bit for bit
        base = projected_deviation_matrix(a * np.eye(N) - Lp)
        step = projected_deviation_matrix(Lc)
        radii = _two_array_grid((base + base.T) / 2.0, (step + step.T) / 2.0, ks)
        assert result.stabilizing_k.tobytes() == ks[radii < 1.0].tobytes()
        best = int(np.argmin(radii))
        assert (result.best_k, result.best_radius) == (ks[best], radii[best])
        # projecting by the deviation columns alone may round differently
        reference = _two_array_grid_search(a, Lp, Lc, ks)
        assert np.allclose(radii, reference, rtol=0.0, atol=64 * N * np.finfo(float).eps
                           * (abs(a) + np.linalg.norm(Lp) + 3.0 * np.linalg.norm(Lc)))


def test_grid_search_rejects_non_invariant_input():
    Lc = laplacian(WeightedGraph.path(3))
    with pytest.raises(NotDeviationInvariant):
        scalar_grid_search(1.2, np.zeros((3, 3)), Lc + np.diag([0.0, 0.0, 0.1]), count=11)
    with pytest.raises(NotDeviationInvariant):
        scalar_grid_search(1.2, np.diag([0.0, 0.0, 0.1]), Lc, count=11)


def test_grid_search_holds_one_stack():
    # the N = 16 grid of 4001 points peaks below 1.5 stacks of 15 x 15 matrices
    rng = np.random.default_rng(67)
    a, gp, gc = random_scalar_instance(rng, N=16)
    Lp, Lc = laplacian(gp), laplacian(gc)
    one_stack = 4001 * 15 * 15 * 8
    tracemalloc.start()
    try:
        scalar_grid_search(a, Lp, Lc, count=4001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * one_stack


def _traced_peak_in_loops(check, N: int, n: int) -> float:
    """Peak traced memory of check(model, K), in stacked loops of (Nn)^2 floats."""
    rng = np.random.default_rng(73)
    model = LimasModel(random_state_matrix(rng, n), random_input(rng, n),
                       WeightedGraph.cycle(N, 0.3), WeightedGraph.path(N), alpha=0.2)
    K = rng.uniform(-1.0, 1.0, (1, n))
    model.laplacian_p, model.laplacian_c  # cached before the trace
    tracemalloc.start()
    try:
        check(model, K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / ((N * n) ** 2 * 8)


@pytest.mark.parametrize("N, n", [(256, 2), (128, 4)])
def test_closed_loop_holds_one_stacked_array(N, n):
    # the assembly peaks at the loop and one N x N scratch array, 1/n^2 of it
    assert _traced_peak_in_loops(closed_loop_matrix, N, n) < 1.5


@pytest.mark.parametrize("N, n", [(512, 1), (128, 4)])
def test_referee_holds_two_stacked_arrays(N, n):
    # verify_gain peaks at the loop and the projection's product buffer (the
    # eigensolver's copy is LAPACK's, not traced); at n = 1 the assembly's
    # N x N scratch array is a loop too: below 2.5 loops
    assert _traced_peak_in_loops(verify_gain, N, n) < 2.5


def test_grid_search_memory_is_bounded_by_the_block():
    # the N = 16 grid of 40 001 points would be a 72 MB stack; it holds one
    # block of GRID_BLOCK_FLOATS floats plus a few floats per grid point
    rng = np.random.default_rng(67)
    a, gp, gc = random_scalar_instance(rng, N=16)
    Lp, Lc = laplacian(gp), laplacian(gc)
    tracemalloc.start()
    try:
        scalar_grid_search(a, Lp, Lc, count=40_001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * GRID_BLOCK_FLOATS * 8


def test_grid_search_blocks_do_not_change_the_result(monkeypatch):
    # blocks of 7 points, the last one short, match one block for the whole grid
    rng = np.random.default_rng(71)
    a, gp, gc = random_scalar_instance(rng, N=6)
    Lp, Lc = laplacian(gp), laplacian(gc)
    whole = scalar_grid_search(a, Lp, Lc, lo=-3.0, hi=3.0, count=601)
    monkeypatch.setattr(oracle, "GRID_BLOCK_FLOATS", 7 * 5 * 5)
    blocked = scalar_grid_search(a, Lp, Lc, lo=-3.0, hi=3.0, count=601)
    assert np.array_equal(blocked.stabilizing_k, whole.stabilizing_k)
    assert (blocked.best_k, blocked.best_radius) == (whole.best_k, whole.best_radius)


def _exhaustive_grid_search(a, Lp, Lc, count):
    """(stabilizing_k, best_k, best_radius) with an eigensolve at every grid point."""
    base = projected_deviation_matrix(a * np.eye(Lp.shape[0]) - Lp)
    step = projected_deviation_matrix(Lc)
    base, step = (base + base.T) / 2.0, (step + step.T) / 2.0
    ks = np.linspace(oracle.GRID_LO, oracle.GRID_HI, count)
    radii = np.concatenate([_two_array_grid(base, step, ks[i:i + 4096])
                            for i in range(0, count, 4096)])
    best = int(np.argmin(radii))
    return ks[radii < 1.0], ks[best], radii[best]


def _assert_matches_exhaustive(a, Lp, Lc, count):
    result = scalar_grid_search(a, Lp, Lc, count=count)
    stabilizing_k, best_k, best_radius = _exhaustive_grid_search(a, Lp, Lc, count)
    assert result.stabilizing_k.tobytes() == stabilizing_k.tobytes()
    assert (result.best_k, result.best_radius) == (best_k, best_radius)


def test_pruned_grid_matches_exhaustive_scan():
    # random non-commuting instances, gains scaled from about 1e-9 to 14 of
    # either sign: the excluded points change no output bit
    rng = np.random.default_rng(83)
    for _ in range(150):
        a, gp, gc = random_scalar_instance(rng)
        b = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, 1.15))
        count = int(rng.choice([2, 3, 101, 4001, 40_001]))
        _assert_matches_exhaustive(a, laplacian(gp), b * laplacian(gc), count)


def test_pruned_grid_matches_exhaustive_scan_where_the_bound_is_tight():
    # N = 2 leaves one deviation mode, r(k) = |base + k*step| with
    # ||step||_F = ||step||_2, so the bound is attained on each linear piece
    # and coarse points land near the ends of the stabilizing interval
    rng = np.random.default_rng(97)
    for _ in range(30):
        Lp = laplacian(WeightedGraph(2, [(0, 1, float(rng.uniform(0.05, 0.5)))]))
        Lc = laplacian(WeightedGraph(2, [(0, 1, float(rng.uniform(0.1, 1.0)))]))
        _assert_matches_exhaustive(float(rng.uniform(-2.0, 2.0)), Lp, Lc, 40_001)


@pytest.mark.parametrize("case", ["zero step", "zero Lp", "tiny step", "huge scale", "flat"])
def test_pruned_grid_matches_exhaustive_scan_on_degenerate_input(case):
    rng = np.random.default_rng(89)
    for _ in range(3):
        a, gp, gc = random_scalar_instance(rng)
        Lp, Lc = laplacian(gp), laplacian(gc)
        if case == "zero step":
            Lc = np.zeros_like(Lc)
        elif case == "zero Lp":
            Lp = np.zeros_like(Lp)
        elif case == "tiny step":
            Lc = 1e-12 * Lc
        elif case == "huge scale":
            a, Lp, Lc = 1e9 * a, 1e9 * Lp, 1e9 * Lc
        else:  # every radius is zero: the whole grid stabilizes
            a, Lp, Lc = 0.0, np.zeros_like(Lp), np.zeros_like(Lc)
        _assert_matches_exhaustive(a, Lp, Lc, 4001)


def test_pruned_grid_evaluates_few_points(monkeypatch):
    # the default 40 001-point grid of an N = 16 cycle + complete model
    # needs under 2 000 eigensolves
    model = LimasModel([[1.1]], [[1.0]], WeightedGraph.cycle(16, 0.1),
                       WeightedGraph.complete(16, 1.0), alpha=0.3)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(stack):
        solved.append(len(stack))
        return eigvalsh(stack)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    result = scalar_model_grid_search(model)
    assert result.stabilizing_k.size > 0
    assert 0 < sum(solved) <= 2000


@pytest.mark.parametrize("lo, hi", [(5.0, -5.0), (1.0, 1.0), (np.nan, 1.0), (-1.0, np.nan),
                                    (-np.inf, 1.0), (-1.0, np.inf)])
def test_grid_search_rejects_bad_bounds(lo, hi):
    with pytest.raises(ValueError, match="grid bounds must be finite with lo < hi"):
        scalar_grid_search(1.2, np.zeros((3, 3)), laplacian(WeightedGraph.path(3)),
                           lo=lo, hi=hi, count=201)


def test_grid_search_input_checks():
    path = laplacian(WeightedGraph.path(3))
    with pytest.raises(ShapeMismatch, match=r"^Laplacians differ in size: \(3, 3\) vs \(4, 4\)$"):
        scalar_grid_search(1.2, path, laplacian(WeightedGraph.path(4)))
    with pytest.raises(ValueError, match="^grid needs at least 2 points, got 1$"):
        scalar_grid_search(1.2, path, path, count=1)


def test_verify_gain_agrees_with_modal_radii(showcase_model):
    from limas import synthesize_gain
    synth = synthesize_gain(showcase_model)
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
        K = rng.uniform(-1.0, 1.0, (1, model.n))
        radii = modal_radii(model, K)
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
