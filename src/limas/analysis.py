"""Consensusability analysis for linear interconnected multi-agent systems.

An interconnected multi-agent plant couples N identical linear agents in
two ways at once: physically (neighbor states leak into each agent's
dynamics through a coupling matrix and a physical graph) and cybernetically
(a shared static feedback gain acts on communicated state differences).
This module decides whether one common gain can drive all agents to
consensus, and synthesizes that gain when its sufficient condition holds:

* assumption checks (commuting Laplacians, per-mode controllability,
  proportional physical coupling), each a cached property of the model,
* a sufficient condition comparing the spread of per-mode gain targets
  against a critical Riccati margin, with gain synthesis through the
  stabilizing solution of a modified algebraic Riccati equation (MARE),
  found by Newton (policy iteration) steps at the target margin sigma from
  one start gain, which mirrors the unstable poles and pulls every pole
  inside the unit circle by a margin, so that it stabilizes whenever sigma
  exceeds its critical value. Newton stops once its quadratic convergence,
  or its Riccati residual, has reached rounding, and the gain it returns
  must pass a spectral gate of its Stein operator,
* a necessary (refutation) condition built from per-mode determinants,
* sharper interval conditions for scalar agent dynamics,
* direct per-mode spectral-radius verification of any candidate gain.

Each public check takes the model (and a gain) alone, so nothing computed
from one model reaches another; only :func:`analyze` synthesizes the Riccati
gain and writes a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AssumptionViolated,
    Divergence,
    DegenerateSpectrum,
    NotCommuting,
    NotControllable,
    NotScalar,
)
from .graphs import (
    AssumptionCheck,
    SpectralPair,
    WeightedGraph,
    _laplacian_spectrum,
    commute_check,
    is_connected,
    laplacian,
    simultaneous_diagonalize,
)
from .linalg import (
    as_matrix,
    as_square,
    controllability_matrix,
    controllability_singular_values,
    eig_general,
    has_full_row_rank,
    has_rank,
)
from .oracle import verify_gain

# Ap = alpha*A holds when ||Ap - alpha*A||_F <= COUPLING_RTOL * ||A||_F.
COUPLING_RTOL = 1e-9
# Stein solves allowed to the one Newton run of the Riccati solve; using them
# all up without an exit fails it.
MARE_SOLVES = 50
# A refutation needs the per-mode intervals of the gain coordinate to miss
# each other by more than REFUTATION_RTOL times their largest end: Ap may
# differ from alpha*A by the coupling gate, and the determinants round.
REFUTATION_RTOL = 1e-6
# A paired communication mode at or below this times the largest one counts
# as a disconnected graph.
CONNECTIVITY_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class LimasModel:
    """A fully specified interconnected multi-agent plant.

    ``A`` (n x n) is the common agent state matrix, ``Ap`` (n x n) the
    physical coupling matrix, ``B`` (n x 1) the scalar-input matrix, and
    ``gp``/``gc`` the physical and communication graphs on N nodes. Pass
    ``alpha`` instead of (or along with) ``Ap`` to declare proportional
    coupling Ap = alpha * A; when both are given they must agree.

    What the conditions read of the plant is computed once, on first access,
    and kept: the Laplacians, their sorted spectra, their joint spectrum and
    the commute, controllability and coupling checks. The conditions take
    the model alone and read these from it.
    """

    n: int
    N: int
    A: np.ndarray
    Ap: np.ndarray
    B: np.ndarray
    gp: WeightedGraph
    gc: WeightedGraph
    alpha: float | None

    def __init__(self, A, B, gp: WeightedGraph, gc: WeightedGraph,
                 Ap=None, alpha: float | None = None):
        A = as_matrix(A, name="A")
        n = A.shape[0]
        A = as_matrix(A, rows=n, cols=n, name="A")
        B = as_matrix(B, rows=n, cols=1, name="B")
        if Ap is None and alpha is None:
            raise ValueError("provide Ap, alpha, or both")
        if alpha is not None and not np.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha}")
        if Ap is None:
            Ap = alpha * A
        Ap = as_matrix(Ap, rows=n, cols=n, name="Ap")
        object.__setattr__(self, "n", n)
        # own copies, frozen, so the model never aliases caller arrays
        object.__setattr__(self, "A", _frozen(A.copy()))
        object.__setattr__(self, "Ap", _frozen(Ap.copy()))
        object.__setattr__(self, "B", _frozen(B.copy()))
        object.__setattr__(self, "alpha", None if alpha is None else float(alpha))
        # a declared ratio is judged by the coupling check that analysis reads
        coupling = self.coupling_check[0] if alpha is not None else None
        if coupling is not None and not coupling.holds:
            raise ValueError(f"Ap and alpha disagree: ||Ap - alpha*A|| = {coupling.residual:g}")
        if not isinstance(gp, WeightedGraph) or not isinstance(gc, WeightedGraph):
            raise ValueError("gp and gc must be WeightedGraph instances")
        if gp.node_count != gc.node_count:
            raise ValueError("physical and communication graphs disagree on node count")
        if not is_connected(gc):
            raise ValueError("communication graph must be connected")
        object.__setattr__(self, "N", gp.node_count)
        object.__setattr__(self, "gp", gp)
        object.__setattr__(self, "gc", gc)

    @cached_property
    def laplacian_p(self) -> np.ndarray:
        """The physical Laplacian, read-only."""
        return _frozen(laplacian(self.gp))

    @cached_property
    def laplacian_c(self) -> np.ndarray:
        """The communication Laplacian, read-only."""
        return _frozen(laplacian(self.gc))

    @cached_property
    def spectrum_p(self) -> np.ndarray:
        """Ascending physical Laplacian eigenvalues; entry 0 is the consensus mode."""
        return _laplacian_spectrum(self.laplacian_p)

    @cached_property
    def spectrum_c(self) -> np.ndarray:
        """Ascending communication Laplacian eigenvalues; entry 0 is the consensus mode."""
        return _laplacian_spectrum(self.laplacian_c)

    @cached_property
    def commute_check(self) -> AssumptionCheck:
        """commute_check of the two Laplacians, computed once."""
        return commute_check(self.laplacian_p, self.laplacian_c)

    @cached_property
    def joint_spectrum(self) -> SpectralPair:
        """The paired eigenvalues of the two Laplacians, computed once.

        Raises NotCommuting ("Laplacians do not commute (residual ...)")
        when commute_check fails; otherwise pairs them with
        graphs.simultaneous_diagonalize, which may raise DegenerateSpectrum.
        A refusal is not kept: each access raises it again, NotCommuting
        from the cached check and DegenerateSpectrum by pairing anew.
        """
        commute = self.commute_check
        if not commute.holds:
            raise NotCommuting(f"Laplacians do not commute (residual {commute.residual:g})")
        return simultaneous_diagonalize(self.laplacian_p, self.laplacian_c, self.spectrum_p)

    @cached_property
    def controllability_check(self) -> AssumptionCheck:
        """check_modal_controllability of this model, computed once."""
        return check_modal_controllability(self)

    @cached_property
    def coupling_check(self) -> tuple[AssumptionCheck, float | None]:
        """Is Ap proportional to A? The check and the ratio used, computed once: a declared
        ratio as-is, else the fit <Ap, A> / <A, A>; the residual is ||Ap - alpha*A||_F."""
        if self.alpha is not None:
            alpha = self.alpha
        else:
            denom = float(np.sum(self.A * self.A))
            alpha = float(np.sum(self.Ap * self.A)) / denom if denom > 0.0 else 0.0
        residual = float(np.linalg.norm(self.Ap - alpha * self.A))
        holds = residual <= COUPLING_RTOL * float(np.linalg.norm(self.A))
        return AssumptionCheck(holds, residual), (alpha if holds else None)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only."""
    arr.setflags(write=False)
    return arr


def check_modal_controllability(model: LimasModel) -> AssumptionCheck:
    """Is (A - lambda*Ap, B) controllable for every non-consensus mode lambda?

    The mode eigenvalues are the physical Laplacian spectrum with one zero
    removed; pairing with communication modes is irrelevant here. The
    residual is the smallest controllability-matrix singular value seen.
    """
    modes = model.A - model.spectrum_p[1:, None, None] * model.Ap
    sv = controllability_singular_values(modes, model.B)
    margin = float(sv[:, -1].min())
    failures = [float(lam) for lam in model.spectrum_p[1:][~has_rank(sv, model.n)]]
    if failures:
        return AssumptionCheck(False, margin,
                               f"uncontrollable at physical modes {failures}")
    return AssumptionCheck(True, margin)


def _critical_margin(values: np.ndarray) -> float:
    """Critical Riccati margin of a matrix with the eigenvalues ``values``: zero when it is
    Schur stable, else one minus the inverse squared product of those with modulus >= 1."""
    mags = np.abs(values)
    if float(mags.max()) < 1.0:
        return 0.0
    product = float(np.prod(mags[mags >= 1.0]))
    return 1.0 - 1.0 / (product * product)


@dataclass(frozen=True)
class SufficientResult:
    """Outcome of the sufficient consensusability test.

    ``holds`` compares the squared half-spread of the gain targets
    alpha_i / lambda_cj (``lhs``) against the admissible margin ``rhs``.
    ``k_star`` is the midpoint gain scale and ``sigma_modes`` the per-mode
    Riccati margins it achieves under positional mode pairing.
    ``alpha_min``/``alpha_max`` are the extremes of |alpha_i|, the coupling
    factors alpha_i = 1 - alpha * lambda_p_i of the non-consensus modes.
    """

    holds: bool
    k_star: float
    lhs: float
    rhs: float
    sigma_c: float
    alpha_min: float
    alpha_max: float
    sigma_modes: np.ndarray


def _communication_modes(model: LimasModel, lam_c) -> np.ndarray:
    """Non-consensus lambda_c, after the checks every condition shares.

    Raises AssumptionViolated(2) without per-mode controllability, then
    AssumptionViolated(0) when a communication mode is at or below
    CONNECTIVITY_FLOOR times the largest one.
    """
    a2 = model.controllability_check
    if not a2.holds:
        raise AssumptionViolated(2, a2.detail)
    lam_c = np.asarray(lam_c, dtype=float)
    if float(lam_c.min()) <= CONNECTIVITY_FLOOR * float(lam_c.max()):
        raise AssumptionViolated(0, "communication graph effectively disconnected")
    return lam_c


def sufficient_check(model: LimasModel) -> SufficientResult:
    """Evaluate the sufficient condition and the midpoint gain scale.

    Reads the model's joint_spectrum, so it raises NotCommuting or
    DegenerateSpectrum without one; per-mode controllability and
    proportional coupling are required too (AssumptionViolated if not).
    The extremes of alpha_i / lambda_cj range over modes i and j
    independently, while the reported sigma_modes pair modes positionally.
    A term beyond the float range is inf (or 0 by underflow), and ``holds``
    needs lhs, rhs and every sigma mode finite.
    """
    spec = model.joint_spectrum
    lam_c = _communication_modes(model, spec.lambda_c[1:])
    a3, alpha = model.coupling_check
    if not a3.holds:
        raise AssumptionViolated(3, f"coupling residual {a3.residual:g}")
    alpha_i = 1.0 - alpha * spec.lambda_p[1:]
    mags = np.abs(alpha_i)
    alpha_min, alpha_max = float(mags.min()), float(mags.max())

    if alpha_max == 0.0:
        # Every mode matrix collapses to lambda_c * B K, so K = 0 certifies.
        return SufficientResult(True, 0.0, 0.0, 0.0, 0.0, alpha_min, alpha_max,
                                np.zeros_like(lam_c))

    sc = _critical_margin(eig_general(alpha_max * model.A))
    with np.errstate(all="ignore"):
        ratios = alpha_i[:, None] / lam_c[None, :]
        lo, hi = float(ratios.min()), float(ratios.max())
        lhs = _square((hi - lo) / 2.0)
        rhs = float(np.divide(_square(alpha_min) - _square(alpha_max) * sc,
                              _square(float(lam_c.max()))))
        k_star = (lo + hi) / 2.0
        sigma_modes = (2.0 * alpha_i * lam_c * k_star
                       - lam_c ** 2 * _square(k_star)) / _square(alpha_max)
    holds = bool(lhs < rhs and np.isfinite([lhs, rhs, *sigma_modes]).all())
    return SufficientResult(holds, k_star, lhs, rhs, sc, alpha_min, alpha_max,
                            sigma_modes)


def _square(x: float) -> float:
    """x ** 2 by Python's float power (libm pow, which differs from x * x in the
    last bit for some x), or inf where that overflows; an underflow gives 0."""
    try:
        return x ** 2
    except OverflowError:
        return np.inf


@dataclass(frozen=True)
class MareSolution:
    """Stabilizing solution of the modified Riccati equation at solve_mare's sigma.

    ``iterations`` counts the Stein solves spent, the one that found the
    rounding floor included. ``residual`` is the relative Riccati residual
    ||MARE(P) - P||_F / ||P||_F. ``K`` is the gain -(B'PB)^-1 B'P Abar of
    this ``P``; its Stein operator passed the spectral gate.
    """

    P: np.ndarray
    iterations: int
    residual: float
    K: np.ndarray


def solve_mare(Abar, B, sigma: float) -> MareSolution:
    """Solve P = Abar'P Abar - sigma * Abar'PB (B'PB)^-1 B'P Abar + I.

    The equation is homogeneous of degree one in (P, Q), so the gain
    K = -(B'PB)^-1 B'P Abar does not depend on the scale of Q = q I, and
    Q = I is taken. For single-input B a solution exists exactly when sigma
    exceeds the critical margin sigma_c of Abar (any sigma when Abar is
    Schur stable); below it, Divergence is raised up front.

    Newton (see _policy_iteration) runs once, from K = 0 at sigma = 0 and
    otherwise from K / sigma, where K keeps the poles of Abar inside the unit
    circle, mirrors each other pole lam to 1 / conj(lam), and pulls each pole
    to modulus at most r = max(0, 2 s^(1/4n) - 1), s = (1-sigma)/(1-sigma_c)
    < 1. Writing the random input gain as sigma (1 + delta),
    var(delta) = (1-sigma)/sigma, the Stein operator of that start is Schur
    stable exactly when (1-sigma) ||T + 1||_2^2 < 1 for
    T = K (zI - Abar - B K)^-1 B = phi_Abar / phi_closed - 1. A pulled factor
    of T + 1 has H-infinity norm at most 2/(1+r) times |lam| or 1, so
    (1-sigma) ||T + 1||_2^2 <= sqrt(s) < 1: the start is stabilizing by a
    margin, also when a pole on the circle, or within rounding of it, would
    be its own mirror. Divergence is raised when Newton fails. The spectrum
    of Abar is taken once, for sigma_c and for the start.
    """
    Abar = as_square(Abar, name="Abar")
    n = Abar.shape[0]
    B = as_matrix(B, rows=n, cols=1, name="B")
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    ctrb = controllability_matrix(Abar, B)
    if not has_full_row_rank(ctrb):
        raise NotControllable("(Abar, B) fails the controllability rank test")
    values = eig_general(Abar)
    critical = _critical_margin(values)
    if critical > 0.0 and sigma <= critical:
        raise Divergence(
            f"sigma = {sigma:g} is at or below the critical margin {critical:g}",
            iterations=0)

    K = np.zeros((1, n))
    if sigma > 0.0:
        radius = max(0.0, 2.0 * ((1.0 - sigma) / (1.0 - critical)) ** (0.25 / n) - 1.0)
        K = _start_gain(Abar, values, ctrb, sigma, radius)
    return _policy_iteration(Abar, B, sigma, K)


def _start_gain(Abar: np.ndarray, values: np.ndarray, ctrb: np.ndarray, sigma: float,
                radius: float) -> np.ndarray:
    """Newton's start gain K / sigma, K placing the poles of Abar + BK.

    The poles are the eigenvalues ``values`` of Abar, each one outside the
    unit circle mirrored to 1 / conj(lam), then each one above ``radius`` in
    modulus pulled to it. Ackermann's formula gives K = -e_n' ctrb^-1
    poly(Abar) for their monic polynomial, evaluated by Horner's rule;
    ``ctrb`` is the invertible controllability matrix
    [B, Abar B, ..., Abar^(n-1)B], which the caller builds once, for its rank
    test too.
    """
    placed, outside = values.copy(), np.abs(values) >= 1.0
    placed[outside] = 1.0 / values[outside].conj()
    far = np.abs(placed) > radius
    placed[far] *= radius / np.abs(placed[far])
    identity = np.eye(len(Abar))
    value = identity
    for coefficient in np.poly(placed).real[1:]:
        value = value @ Abar + coefficient * identity
    return -(np.linalg.solve(ctrb.T, identity[:, -1]) @ value)[None, :] / sigma


def _policy_iteration(Abar, B, sigma: float, K) -> MareSolution:
    """Newton's method (Hewer's policy iteration) for the MARE from the gain K.

    Each step solves the Stein equation of K,
    P = sigma (Abar+BK)'P(Abar+BK) + (1-sigma) Abar'P Abar + I, for its
    increment over the last P (so the rounding is relative to the
    increment), then sets K = -(B'PB)^-1 B'P Abar. There are two exits.
    After the first step, a relative step predicting a next one at machine
    epsilon under quadratic convergence, step^3 <= eps prev_step^2, returns
    this iterate. From the third solve on, a residual ||MARE(P) - P||_F not
    below the last one (not divided by ||P||, which falls along the
    iteration) marks the rounding floor, and the last iterate is returned.
    Right after a step that moved P by more than ||P||, neither judges the
    iterate: the prediction counts that step as 1, and the floor test waits.
    The returned gain must pass the spectral gate; a refused gain, a
    singular solve, B'PB <= 0 or MARE_SOLVES solves raise
    Divergence, whose ``iterations`` counts the solves spent.
    """
    n = Abar.shape[0]
    kron_a = _kron_transposed(Abar)
    operator = _stein_operator(_kron_transposed(Abar + B @ K), kron_a, sigma)
    identity = np.eye(n * n)
    eps = np.finfo(float).eps
    P, defect, residual, prev_step = np.zeros((n, n)), np.eye(n), np.inf, None

    def divergence(reason: str, solves: int) -> Divergence:
        return Divergence(f"Newton at sigma = {sigma:.12g} stopped after {solves} "
                          f"Stein solves: {reason}", iterations=solves)

    for solves in range(1, MARE_SOLVES + 1):
        try:
            increment = np.linalg.solve(identity - operator, defect.ravel()).reshape(n, n)
        except np.linalg.LinAlgError:
            raise divergence("singular Stein equation", solves) from None
        trial = P + (increment + increment.T) / 2.0
        trial_defect, trial_K = _riccati_defect(Abar, B, sigma, trial)
        if trial_K is None:
            raise divergence("B'PB is not positive", solves)
        trial_norm = float(np.linalg.norm(trial))
        step = float(np.linalg.norm(increment)) / trial_norm
        trial_residual = float(np.linalg.norm(trial_defect))
        converged = prev_step is not None and step ** 3 <= eps * min(prev_step, 1.0) ** 2
        if not converged and solves >= 3 and prev_step <= 1.0 and trial_residual >= residual:
            break  # the rounding floor: keep P, whose operator is at hand
        P, defect, K, residual, P_norm = trial, trial_defect, trial_K, trial_residual, trial_norm
        operator = _stein_operator(_kron_transposed(Abar + B @ K), kron_a, sigma)
        if converged:
            break
        prev_step = step
    else:
        raise divergence("no convergence", MARE_SOLVES)
    if not _schur_stable(operator):
        raise divergence("the gain is not stabilizing", solves)
    return MareSolution(P, solves, residual / P_norm, K)


def _kron_transposed(X: np.ndarray) -> np.ndarray:
    """kron(X', X'), the map P -> X'PX on row-major vec(P), by one broadcast product."""
    n = X.shape[0]
    return (X.T[:, None, :, None] * X.T[None, :, None, :]).reshape(n * n, n * n)


def _stein_operator(kron_f, kron_a, sigma: float) -> np.ndarray:
    """The map P -> sigma F'PF + (1-sigma) Abar'P Abar on row-major vec(P), from
    kron_f = kron(F', F') of the closed loop F = Abar + BK and kron_a = kron(Abar', Abar')."""
    return sigma * kron_f + (1.0 - sigma) * kron_a


def _schur_stable(operator) -> bool:
    """Spectral radius below one; an eigenvalue solver failure counts as unstable."""
    try:
        return float(np.abs(np.linalg.eigvals(operator)).max()) < 1.0
    except np.linalg.LinAlgError:
        return False


def _riccati_defect(Abar, B, sigma: float, P):
    """MARE(P) - P and the gain K = -(B'PB)^-1 B'P Abar; K is None unless B'PB > 0."""
    PB = P @ B
    btpb = float((B.T @ PB).item())
    if not btpb > 0.0:
        return None, None
    gain_dir = Abar.T @ PB
    defect = Abar.T @ P @ Abar - sigma * (gain_dir @ gain_dir.T) / btpb + np.eye(len(P)) - P
    return (defect + defect.T) / 2.0, -gain_dir.T / btpb


def modal_radii(model: LimasModel, K) -> np.ndarray:
    """Spectral radius of every non-consensus mode A - lp*Ap + lc*BK.

    The modes pair positionally in the model's joint_spectrum, which exists
    only for commuting Laplacians (NotCommuting or DegenerateSpectrum
    otherwise). All radii below one certifies consensus.
    """
    K = as_matrix(K, rows=1, cols=model.n, name="K")
    spec = model.joint_spectrum
    modes = (model.A - spec.lambda_p[1:, None, None] * model.Ap
             + spec.lambda_c[1:, None, None] * (model.B @ K))
    return np.abs(eig_general(modes)).max(axis=1)


def _synthesize(model: LimasModel, sufficient: SufficientResult
                ) -> tuple[np.ndarray, float, MareSolution | None]:
    """The Riccati gain K of analyze, with its sigma and MARE solution; it judges nothing.

    ``sufficient`` is the model's own sufficient_check, and it holds. Solves
    the modified Riccati equation for the worst-case scaled state matrix at
    the smallest per-mode margin achieved by the midpoint gain scale and
    forms K = -k* (B'PB)^-1 B'PA. With Abar = alpha_max * A that gain is
    (k* / alpha_max) times the gain -(B'PB)^-1 B'P Abar that solve_mare
    returns, so it is not formed again. The margin is clipped into [0, 1];
    one at or below the critical margin surfaces as solve_mare's Divergence.
    With alpha_max = 0 the gain is K = 0, and no MARE is solved. Whether K
    certifies is for AnalysisReport._certify to say.
    """
    alpha_max = sufficient.alpha_max
    if alpha_max == 0.0:
        return np.zeros((1, model.n)), 0.0, None

    sigma = float(np.clip(np.min(sufficient.sigma_modes), 0.0, 1.0))
    mare = solve_mare(alpha_max * model.A, model.B, sigma)
    return (sufficient.k_star / alpha_max) * mare.K, sigma, mare


@dataclass(frozen=True)
class NecessaryResult:
    """Outcome of the necessary (refutation) condition.

    ``holds=False`` certifies that no common static gain can reach
    consensus; it is decided by the exact per-mode determinant intervals of
    :func:`necessary_check`. The paper's quantities are reported alongside:
    ``lhs`` is |gamma_c * det_min - det_max| and ``rhs`` is gamma_c + 1, and
    ``lhs < rhs`` need not agree with ``holds``.
    """

    holds: bool
    gamma_c: float
    det_min: float
    det_max: float
    lhs: float
    rhs: float
    dets: tuple[float, ...]


def necessary_check(model: LimasModel) -> NecessaryResult:
    """Evaluate the determinant-based necessary condition.

    Requires the model's joint_spectrum (NotCommuting or DegenerateSpectrum
    without one) and per-mode controllability, but not proportional
    coupling. gamma_c is the communication eigenratio lambda_c_max /
    lambda_c_min over modes, and ``dets`` are the |det M_i| of the mode
    matrices M_i = A - lp_i*Ap.

    ``holds`` is False only when no gain can make every mode's determinant
    smaller than one in magnitude. By the matrix determinant lemma,
    det(M_i + lc_i*BK) = h_i + lc_i*K adj(M_i)B with h_i = det M_i. For
    n = 1, and for Ap = alpha*A where adj(M_i)B = alpha_i^(n-1) adj(A)B with
    alpha_i = 1 - alpha*lp_i, that is h_i + s_i*c in the one scalar
    c = K adj(A)B, with s_i = lc_i (n = 1) or lc_i*alpha_i^(n-1). The check
    fails when the intervals {c : |h_i + s_i*c| < 1} have an empty
    intersection with room to spare: the lowest upper end must lie below
    the highest lower end by more than REFUTATION_RTOL times the largest
    end's magnitude. For n >= 2 without proportional coupling it always
    holds.
    """
    spec = model.joint_spectrum
    lam_c = _communication_modes(model, spec.lambda_c[1:])
    gamma_c = float(lam_c.max()) / float(lam_c.min())
    modes = model.A - spec.lambda_p[1:, None, None] * model.Ap
    signed = np.linalg.det(modes)
    dets = tuple(np.abs(signed).tolist())
    det_min, det_max = min(dets), max(dets)
    lhs = abs(gamma_c * det_min - det_max)
    rhs = gamma_c + 1.0
    holds = True
    alpha = 0.0 if model.n == 1 else model.coupling_check[1]
    if alpha is not None:
        slopes = lam_c * (1.0 - alpha * spec.lambda_p[1:]) ** (model.n - 1)
        ends = (np.array([[-1.0], [1.0]]) - signed) / slopes
        gap = ends.min(axis=0).max() - ends.max(axis=0).min()
        holds = bool(gap <= REFUTATION_RTOL * np.abs(ends).max())
    return NecessaryResult(holds, gamma_c, det_min, det_max, lhs, rhs, dets)


@dataclass(frozen=True)
class ScalarResult:
    """Interval conditions for scalar (n = 1) agent dynamics.

    ``c1``/``c2`` are the positive- and negative-gain sufficient conditions;
    ``k_plus``/``k_minus`` the corresponding open gain intervals (endpoints
    reported even when empty). ``necessary`` is the scalar refutation test;
    when it is False, no gain works at all.
    """

    c1: bool
    c2: bool
    k_plus: tuple[float, float]
    k_minus: tuple[float, float]
    k_recommended: float | None
    necessary: bool
    gamma_c: float
    delta_p: float


def scalar_check(model: LimasModel) -> ScalarResult:
    """Evaluate the scalar consensusability conditions of an n = 1 model.

    Raises NotScalar for n != 1, then AssumptionViolated as every condition
    does: 2 without per-mode controllability (b = 0), 0 when a communication
    mode is at or below CONNECTIVITY_FLOOR times the largest. Each mode is
    a - lp + lc * k in a normal form: a = A, the physical modes
    lp = Ap * spectrum_p[1:], the communication modes lc = spectrum_c[1:]
    and the gain k = B * K, so the gain intervals are those of B * K. No
    commuting assumption is needed; only spectral extremes enter.
    """
    if model.n != 1:
        raise NotScalar(f"scalar conditions need n = 1, got n = {model.n}")
    lc = _communication_modes(model, model.spectrum_c[1:])
    a = model.A.item()
    lp = model.Ap.item() * model.spectrum_p[1:]
    lp_min, lp_max = float(lp.min()), float(lp.max())
    lc_min, lc_max = float(lc.min()), float(lc.max())
    gamma_c = lc_max / lc_min
    delta_p = lp_max - lp_min

    c1 = (lp_min > a - 1.0) and \
        ((gamma_c - 1.0) * (1.0 - a + lp_min) < gamma_c * (2.0 - delta_p))
    c2 = (lp_max < 1.0 + a) and \
        ((gamma_c - 1.0) * (-1.0 - a + lp_max) > gamma_c * (delta_p - 2.0))

    k_plus = ((-1.0 - a + lp_max) / lc_min, (1.0 - a + lp_min) / lc_max)
    k_minus = ((-1.0 - a + lp_max) / lc_max, (1.0 - a + lp_min) / lc_min)

    k_recommended = None
    if c1:
        k_recommended = (max(k_plus[0], 0.0) + k_plus[1]) / 2.0
    elif c2:
        k_recommended = (k_minus[0] + min(k_minus[1], 0.0)) / 2.0

    dists = np.abs(a - lp)
    necessary = abs(gamma_c * float(dists.min()) - float(dists.max())) < gamma_c + 1.0
    return ScalarResult(c1, c2, k_plus, k_minus, k_recommended, necessary,
                        gamma_c, delta_p)


@dataclass
class AnalysisReport:
    """Everything a consensusability run decided, plus the raw numbers.

    ``consensusable_certified`` is True only when a gain was produced,
    every verified deviation-mode radius is strictly below one, and for
    n = 1 the largest one is below one by more than the rounding bound of
    :func:`_rounding_refusal`.
    ``verdict`` is "consensusable", "not-consensusable" (necessary
    condition refuted) or "inconclusive".
    """

    n: int
    N: int
    alpha: float | None
    lambda_p: list[float]
    lambda_c: list[float]
    assumption_commuting: AssumptionCheck
    assumption_controllability: AssumptionCheck
    assumption_coupling: AssumptionCheck
    lambda_p_paired: list[float] | None = None
    lambda_c_paired: list[float] | None = None
    sufficient: SufficientResult | None = None
    sufficient_error: str | None = None
    necessary: NecessaryResult | None = None
    necessary_error: str | None = None
    scalar: ScalarResult | None = None
    gain: list[float] | None = None
    gain_source: str | None = None
    synthesis_error: str | None = None
    mare_sigma: float | None = None
    mare_iterations: int | None = None
    modal_radii: list[float] | None = None
    certificate_method: str | None = None
    certified_radius: float | None = None
    consensusable_certified: bool = False
    verdict: str = "inconclusive"

    def _certify(self, source: str, K, model: LimasModel) -> None:
        """Record gain K from source and judge it: the one place a gain is judged,
        which only :func:`analyze` calls, once, on the first gain it produces.

        With a paired spectrum in this report, the check is its modal radii.
        Without one, when the model's commute_check failed or its pairing was
        refused, the check is verify_gain, and the model's joint_spectrum is
        not read. A radius below one certifies only when
        :func:`_rounding_refusal` finds it clear of rounding; when it does
        not, ``synthesis_error`` says why. A radius not below one is recorded
        as it is, and certifies nothing.
        """
        self.gain = np.ravel(K).tolist()
        self.gain_source = source
        if self.lambda_p_paired is None:
            self.certificate_method = "projected-radius"
            self.certified_radius = float(verify_gain(model, K).max_radius)
        else:
            radii = modal_radii(model, K)
            self.modal_radii = radii.tolist()
            self.certificate_method = "modal-radii"
            self.certified_radius = float(radii.max())
        refusal = _rounding_refusal(model, self.gain, self.certified_radius)
        if refusal is not None:
            self.synthesis_error = refusal
        self.consensusable_certified = self.certified_radius < 1.0 and refusal is None

    def to_dict(self) -> dict:
        def check(c: AssumptionCheck) -> dict:
            d = {"holds": c.holds, "residual": c.residual}
            if c.detail:
                d["detail"] = c.detail
            return d

        out: dict = {
            "model": {"n": self.n, "N": self.N, "alpha": self.alpha},
            "spectra": {
                "lambda_p": self.lambda_p,
                "lambda_c": self.lambda_c,
                "lambda_p_paired": self.lambda_p_paired,
                "lambda_c_paired": self.lambda_c_paired,
            },
            "assumptions": {
                "commuting_laplacians": check(self.assumption_commuting),
                "modal_controllability": check(self.assumption_controllability),
                "proportional_coupling": check(self.assumption_coupling),
            },
        }
        if self.sufficient is not None:
            s = self.sufficient
            out["sufficient"] = {
                "holds": s.holds, "lhs": s.lhs, "rhs": s.rhs,
                "sigma_c": s.sigma_c, "k_star": s.k_star,
                "alpha_min": s.alpha_min, "alpha_max": s.alpha_max,
                "sigma_modes": [float(v) for v in s.sigma_modes],
            }
        else:
            out["sufficient"] = {"error": self.sufficient_error}
        if self.necessary is not None:
            c = self.necessary
            out["necessary"] = {
                "holds": c.holds, "gamma_c": c.gamma_c,
                "det_min": c.det_min, "det_max": c.det_max,
                "lhs": c.lhs, "rhs": c.rhs,
            }
        else:
            out["necessary"] = {"error": self.necessary_error}
        if self.scalar is not None:
            sc = self.scalar
            out["scalar"] = {
                "c1": sc.c1, "c2": sc.c2,
                "k_plus": list(sc.k_plus), "k_minus": list(sc.k_minus),
                "k_recommended": sc.k_recommended,
                "necessary": sc.necessary,
                "gamma_c": sc.gamma_c, "delta_p": sc.delta_p,
            }
        else:
            out["scalar"] = None
        if self.gain is not None:
            out["gain"] = {"K": self.gain, "source": self.gain_source,
                           "sigma": self.mare_sigma,
                           "mare_iterations": self.mare_iterations}
        else:
            out["gain"] = {"error": self.synthesis_error} if self.synthesis_error else None
        out["modal_radii"] = self.modal_radii
        if self.certificate_method is not None:
            out["certificate"] = {"method": self.certificate_method,
                                  "max_radius": self.certified_radius}
            if self.certified_radius < 1.0 and not self.consensusable_certified:
                out["certificate"]["detail"] = self.synthesis_error
        else:
            out["certificate"] = None
        out["consensusable_certified"] = self.consensusable_certified
        out["verdict"] = self.verdict
        return out


def _rounding_refusal(model: LimasModel, K, radius: float) -> str | None:
    """Why a computed radius below one certifies nothing, or None when it certifies.

    For n = 1 the deviation loop a I - ap Lp + bk Lc is symmetric, so by
    Weyl's inequality a perturbation E of it, or of a Laplacian whose
    spectrum gives its modes, moves each eigenvalue by at most ||E||_2. The
    radius certifies when radius + delta < 1 for the rounding model
    delta = 4 N eps s, where the term scale s = |a| + lp_max |ap| +
    lc_max |bk| bounds the 2-norm of each term of the loop and of each of its
    modes. Both checks form the loop from these terms and solve an N x N
    eigenproblem: modal_radii through the Laplacian spectra and verify_gain
    through the reflector update and the dense eigensolve of the projected
    loop, whose inner products have length N. When the terms cancel, as
    with |a| beyond 1e15, delta reaches 1 and nothing is certified. For
    n >= 2 no bound is applied yet, and a radius not below one needs no
    refusal: both return None.
    """
    if model.n != 1 or not radius < 1.0:
        return None
    scale = (abs(model.A.item()) + float(model.spectrum_p[-1]) * abs(model.Ap.item())
             + float(model.spectrum_c[-1]) * abs(model.B.item() * float(np.ravel(K)[0])))
    bound = 4.0 * model.N * np.finfo(float).eps * scale
    if radius + bound < 1.0:
        return None
    return f"not certified: rounding can move the radius by up to {bound:.3g}"


def analyze(model: LimasModel) -> AnalysisReport:
    """Run the full consensusability workflow on one model.

    Assumption checks always run. The sufficient and necessary conditions
    run when their assumptions hold; failures are recorded in the report
    instead of raised. Scalar models additionally get the interval
    conditions, which need no commuting assumption. The verdict follows:

    1. The Riccati gain, then the scalar-interval gain. The first gain
       produced is the one judged, once, by AnalysisReport._certify: by
       modal_radii when the model has a joint_spectrum, by verify_gain
       otherwise; a radius below one certifies it when it is also clear of
       rounding (see :func:`_rounding_refusal`, which refuses only for
       n = 1). The Riccati gain is produced unless its solve fails
       (Divergence or NotControllable, recorded as ``synthesis_error``).
    2. A refutation decides only when no gain was certified.
    """
    spec, error = None, None
    try:
        spec = model.joint_spectrum
    except (NotCommuting, DegenerateSpectrum) as exc:
        error = str(exc)
    coupling, alpha = model.coupling_check
    report = AnalysisReport(
        n=model.n, N=model.N,
        alpha=alpha,
        lambda_p=model.spectrum_p.tolist(),
        lambda_c=model.spectrum_c.tolist(),
        assumption_commuting=model.commute_check,
        assumption_controllability=model.controllability_check,
        assumption_coupling=coupling,
        sufficient_error=error,
        necessary_error=error,
    )

    if spec is not None:
        report.lambda_p_paired = spec.lambda_p.tolist()
        report.lambda_c_paired = spec.lambda_c.tolist()
        try:
            report.sufficient = sufficient_check(model)
        except AssumptionViolated as exc:
            report.sufficient_error = str(exc)
        try:
            report.necessary = necessary_check(model)
        except AssumptionViolated as exc:
            report.necessary_error = str(exc)

    if model.n == 1 and model.B.item() != 0.0:
        # With b != 0 every mode is controllable, so only the connectivity floor refuses.
        try:
            report.scalar = scalar_check(model)
        except AssumptionViolated as exc:
            report.synthesis_error = str(exc)

    if report.sufficient is not None and report.sufficient.holds:
        try:
            K, sigma, mare = _synthesize(model, report.sufficient)
        except (Divergence, NotControllable) as exc:
            report.synthesis_error = str(exc)
        else:
            report.mare_sigma = sigma
            if mare is not None:
                report.mare_iterations = mare.iterations
            report._certify("riccati", K, model)
    if report.gain is None and report.scalar is not None \
            and report.scalar.k_recommended is not None:
        report._certify("scalar-interval", [[report.scalar.k_recommended / model.B.item()]],
                        model)

    if report.consensusable_certified:
        report.verdict = "consensusable"
    elif (report.necessary is not None and not report.necessary.holds) \
            or (report.scalar is not None and not report.scalar.necessary):
        report.verdict = "not-consensusable"
    return report
