"""Consensusability analysis for linear interconnected multi-agent systems.

An interconnected multi-agent plant couples N identical linear agents in
two ways at once: physically (neighbor states leak into each agent's
dynamics through a coupling matrix and a physical graph) and cybernetically
(a shared static feedback gain acts on communicated state differences).
This module decides whether one common gain can drive all agents to
consensus, and synthesizes that gain when its sufficient condition holds:

* assumption checks (commuting Laplacians, per-mode controllability,
  proportional physical coupling),
* a sufficient condition comparing the spread of per-mode gain targets
  against a critical Riccati margin, with gain synthesis through the
  stabilizing solution of a modified algebraic Riccati equation (MARE),
  found by Newton (policy iteration) steps along a continuation in the
  margin sigma: each step goes to just above the sigma where the current
  gain stops being stabilizing (exact, by Krein-Rutman, from one
  eigenvalue problem), and Newton at the target stops once its quadratic
  convergence, or its Riccati residual, has reached rounding,
* a necessary (refutation) condition built from per-mode determinants,
* sharper interval conditions for scalar agent dynamics,
* direct per-mode spectral-radius verification of any candidate gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AssumptionViolated,
    Divergence,
    EmptyRange,
    DegenerateSpectrum,
    NotCommuting,
    NotControllable,
    SynthesisFailed,
)
from .graphs import (
    SpectralPair,
    WeightedGraph,
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
    eig_sym,
    has_full_row_rank,
    has_rank,
)
from .oracle import verify_gain

# Ap = alpha*A holds when ||Ap - alpha*A||_F <= COUPLING_RTOL * ||A||_F.
COUPLING_RTOL = 1e-9
# Newton at the target sigma stops once its relative step is at most this
# and either no longer shrinks or predicts a next step at rounding, or once
# its relative residual stays at rounding; an intermediate sigma takes one
# step regardless.
MARE_STEP_RTOL = 1e-6
# A continuation trial sits this fraction of the way back from the current
# gain's stability front to the current sigma.
MARE_FRONT_RTOL = 0.03
# Stein solves allowed at the target sigma; using them all up rejects that
# trial. An intermediate sigma takes exactly one.
MARE_SOLVES_PER_SIGMA = 50
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
        if alpha is not None:
            drift, agrees = _coupling_residual(A, Ap, alpha)
            if not agrees:
                raise ValueError(
                    f"Ap and alpha disagree: ||Ap - alpha*A|| = {drift:g}")
        if not isinstance(gp, WeightedGraph) or not isinstance(gc, WeightedGraph):
            raise ValueError("gp and gc must be WeightedGraph instances")
        if gp.node_count != gc.node_count:
            raise ValueError("physical and communication graphs disagree on node count")
        if not is_connected(gc):
            raise ValueError("communication graph must be connected")
        # own copies, frozen, so the model never aliases caller arrays
        A, Ap, B = A.copy(), Ap.copy(), B.copy()
        for arr in (A, Ap, B):
            arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", gp.node_count)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Ap", Ap)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "gp", gp)
        object.__setattr__(self, "gc", gc)
        object.__setattr__(self, "alpha", None if alpha is None else float(alpha))

    @cached_property
    def laplacian_p(self) -> np.ndarray:
        return laplacian(self.gp)

    @cached_property
    def laplacian_c(self) -> np.ndarray:
        return laplacian(self.gc)

    @cached_property
    def spectrum_p(self) -> np.ndarray:
        """Ascending physical Laplacian eigenvalues; entry 0 is the consensus mode."""
        return _laplacian_spectrum(self.laplacian_p)

    @cached_property
    def spectrum_c(self) -> np.ndarray:
        """Ascending communication Laplacian eigenvalues; entry 0 is the consensus mode."""
        return _laplacian_spectrum(self.laplacian_c)

    @cached_property
    def controllability_check(self) -> AssumptionCheck:
        """check_modal_controllability of this model, computed once."""
        return check_modal_controllability(self)

    @cached_property
    def coupling_check(self) -> tuple[AssumptionCheck, float | None]:
        """check_proportional_coupling of this model, computed once."""
        return check_proportional_coupling(self)


def _laplacian_spectrum(L: np.ndarray) -> np.ndarray:
    """Read-only ascending Laplacian eigenvalues; entry 0, the consensus mode, is exactly 0.

    A Laplacian has no negative eigenvalue, so a negative one is a rounded
    zero (a disconnected graph has several) and is read as 0; this keeps
    the list ascending after entry 0 is set.
    """
    values = np.maximum(eig_sym(L), 0.0)
    values[0] = 0.0
    values.setflags(write=False)
    return values


def _coupling_residual(A, Ap, alpha: float) -> tuple[float, bool]:
    """||Ap - alpha*A||_F and whether it is within COUPLING_RTOL * ||A||_F."""
    residual = float(np.linalg.norm(Ap - alpha * A))
    return residual, residual <= COUPLING_RTOL * float(np.linalg.norm(A))


@dataclass(frozen=True)
class AssumptionCheck:
    holds: bool
    residual: float
    detail: str = ""


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


def check_proportional_coupling(model: LimasModel) -> tuple[AssumptionCheck, float | None]:
    """Is Ap proportional to A? Returns the check and the ratio used.

    A declared ratio is taken as-is; otherwise the best Frobenius fit
    <Ap, A> / <A, A> is tried. The residual is ||Ap - alpha*A||_F.
    """
    if model.alpha is not None:
        alpha = model.alpha
    else:
        denom = float(np.sum(model.A * model.A))
        alpha = float(np.sum(model.Ap * model.A)) / denom if denom > 0.0 else 0.0
    residual, holds = _coupling_residual(model.A, model.Ap, alpha)
    return AssumptionCheck(holds, residual), (alpha if holds else None)


@dataclass(frozen=True)
class AlphaSpectrum:
    """Per-mode coupling factors 1 - alpha*lambda for the non-consensus modes."""

    alpha_i: np.ndarray
    alpha_min: float
    alpha_max: float


def alpha_spectrum(alpha: float, lambda_p) -> AlphaSpectrum:
    """Coupling factors for the given physical modes (consensus mode excluded)."""
    modes = np.asarray(lambda_p, dtype=float).ravel()
    if modes.size == 0:
        raise EmptyRange("no physical modes supplied")
    alpha_i = 1.0 - alpha * modes
    mags = np.abs(alpha_i)
    return AlphaSpectrum(alpha_i, float(mags.min()), float(mags.max()))


def sigma_critical(A, alpha_max: float) -> float:
    """Critical Riccati margin for the scaled state matrix alpha_max * A.

    Zero when alpha_max * A is Schur stable; otherwise one minus the inverse
    squared product of its eigenvalues on or outside the unit circle.
    """
    values = eig_general(alpha_max * as_square(A, name="A"))
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
    """

    holds: bool
    k_star: float
    lhs: float
    rhs: float
    sigma_c: float
    alpha: AlphaSpectrum
    sigma_modes: np.ndarray


def _communication_modes(model: LimasModel, spec: SpectralPair) -> np.ndarray:
    """Paired non-consensus lambda_c, after the checks both conditions share.

    Raises AssumptionViolated(2) without per-mode controllability, then
    AssumptionViolated(0) when a communication mode is at or below
    CONNECTIVITY_FLOOR times the largest one.
    """
    a2 = model.controllability_check
    if not a2.holds:
        raise AssumptionViolated(2, a2.detail)
    lam_c = np.asarray(spec.lambda_c[1:], dtype=float)
    if float(lam_c.min()) <= CONNECTIVITY_FLOOR * float(lam_c.max()):
        raise AssumptionViolated(0, "communication graph effectively disconnected")
    return lam_c


def sufficient_check(model: LimasModel, spec: SpectralPair) -> SufficientResult:
    """Evaluate the sufficient condition and the midpoint gain scale.

    ``spec`` exists only for commuting Laplacians; per-mode controllability
    and proportional coupling are required too (AssumptionViolated if not).
    The extremes of alpha_i / lambda_cj range over modes i and j
    independently, while the reported sigma_modes pair modes positionally.
    """
    lam_c = _communication_modes(model, spec)
    a3, alpha = model.coupling_check
    if not a3.holds:
        raise AssumptionViolated(3, f"coupling residual {a3.residual:g}")
    asp = alpha_spectrum(alpha, spec.lambda_p[1:])

    if asp.alpha_max == 0.0:
        # Every mode matrix collapses to lambda_c * B K, so K = 0 certifies.
        return SufficientResult(True, 0.0, 0.0, 0.0, 0.0, asp,
                                np.zeros_like(lam_c))

    sc = sigma_critical(model.A, asp.alpha_max)
    ratios = asp.alpha_i[:, None] / lam_c[None, :]
    lo, hi = float(ratios.min()), float(ratios.max())
    lhs = ((hi - lo) / 2.0) ** 2
    rhs = (asp.alpha_min ** 2 - asp.alpha_max ** 2 * sc) / float(lam_c.max()) ** 2
    k_star = (lo + hi) / 2.0
    sigma_modes = (2.0 * asp.alpha_i * lam_c * k_star
                   - lam_c ** 2 * k_star ** 2) / asp.alpha_max ** 2
    return SufficientResult(lhs < rhs, k_star, lhs, rhs, sc, asp, sigma_modes)


@dataclass(frozen=True)
class MareSolution:
    """Stabilizing solution of the modified Riccati equation at ``sigma``.

    ``iterations`` counts the Stein solves spent, those of rejected
    continuation steps included. ``residual`` is the relative Riccati
    residual ||MARE(P) - P||_F / ||P||_F. ``K`` is the gain
    -(B'PB)^-1 B'P Abar of this ``P``, the one the last Newton step formed.
    """

    P: np.ndarray
    sigma: float
    iterations: int
    residual: float
    K: np.ndarray


def solve_mare(Abar, B, sigma: float) -> MareSolution:
    """Solve P = Abar'P Abar - sigma * Abar'PB (B'PB)^-1 B'P Abar + I.

    The equation is homogeneous of degree one in (P, Q), so the gain
    K = -(B'PB)^-1 B'P Abar does not depend on the scale of Q = q I, and
    Q = I is taken. For single-input B a solution exists exactly when sigma
    exceeds the critical margin of Abar (any sigma when Abar is Schur
    stable); below it, Divergence is raised up front. The
    controllability matrix of (Abar, B) is built once: its rank test raises
    NotControllable, and it gives the deadbeat start.

    Otherwise P is found by Newton's method (Hewer's policy iteration): for
    a gain K, solve the linear Stein equation
    P = sigma (Abar+BK)'P(Abar+BK) + (1-sigma) Abar'P Abar + I, then set
    K = -(B'PB)^-1 B'P Abar; each step is solved for its increment over the
    last P. A stabilizing start is carried along a continuation in sigma: at
    sigma = 1 the deadbeat gain makes the Stein operator nilpotent. Each
    trial sigma comes from the frontier of the current gain (see
    _frontier_step): the target itself when the gain stabilizes all the way
    down to it, else just above the sigma where the gain stops being
    stabilizing. A trial is accepted only when the current gain's operator
    has spectral radius below one there and its Newton steps succeed; a
    rejected trial halves the step toward the current sigma. An
    intermediate sigma takes one Newton step, whose gain stabilizes at that
    sigma by Hewer's theorem and is all the next frontier needs. Only the
    target iterates (see _newton), within MARE_SOLVES_PER_SIGMA solves. A
    trial short of the target that the step no longer moves off the current
    sigma in floating point raises Divergence.
    """
    Abar = as_square(Abar, name="Abar")
    n = Abar.shape[0]
    B = as_matrix(B, rows=n, cols=1, name="B")
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    ctrb = controllability_matrix(Abar, B)
    if not has_full_row_rank(ctrb):
        raise NotControllable("(Abar, B) fails the controllability rank test")
    critical = sigma_critical(Abar, 1.0)
    if critical > 0.0 and sigma <= critical:
        raise Divergence(
            f"sigma = {sigma:g} is at or below the critical margin {critical:g}",
            iterations=0)

    kron_a = _kron_transposed(Abar)
    P, K = None, _deadbeat_gain(Abar, ctrb)
    kron_f = _kron_transposed(Abar + B @ K)
    current, solves = 1.0, 0
    step = _frontier_step(kron_f, kron_a, current, sigma, 1.0 - sigma)
    while True:
        trial = max(sigma, current - step)
        if sigma < trial == current:
            raise Divergence(
                f"sigma continuation stalled {current - sigma:.3g} above "
                f"sigma = {sigma:.12g} after {solves} Stein solves",
                iterations=solves)
        operator = _stein_operator(kron_f, kron_a, trial)
        newton = None
        if _schur_stable(operator):
            newton, used = _newton(Abar, B, trial, P, operator, kron_a,
                                   tight=trial == sigma)
            solves += used
        if newton is None:
            step /= 2.0
            continue
        P, K, residual = newton
        if trial == sigma:
            return MareSolution(P, sigma, solves, residual, K)
        current = trial
        kron_f = _kron_transposed(Abar + B @ K)
        step = _frontier_step(kron_f, kron_a, current, sigma, step)


def _frontier_step(kron_f, kron_a, current: float, sigma: float, step: float) -> float:
    """Distance from ``current`` down to the next trial sigma of the continuation.

    The Stein operator T(s) = s kron_f + (1-s) kron_a of the current gain
    maps PSD matrices to PSD matrices, so by Krein-Rutman its spectral
    radius is one of its eigenvalues. T(current) is Schur stable (Hewer's
    step keeps it so), hence as s falls stability is first lost at the
    largest s < current where 1 is an eigenvalue of T(s): s = current + 1/mu
    for the real negative eigenvalues mu of (I - T(current))^-1 (kron_f -
    kron_a), the front being that of the least mu. Every computed mu with a
    negative real part counts by that real part: rounding may return the
    front's mu as a near-real complex pair (a repeated eigenvalue), and a
    complex mu only moves the front toward ``current``, never past the
    exact one. I - T(current) is invertible because T(current) is stable,
    while I - kron_a is singular whenever two eigenvalues of Abar multiply
    to one. When the front lies below ``sigma`` (or no such mu exists) the
    step reaches ``sigma``; otherwise it stops MARE_FRONT_RTOL of the way
    back from the front to ``current``. A failed solve or eigenvalue
    computation leaves the front unknown, and ``step`` is halved instead.
    """
    stein = _stein_operator(kron_f, kron_a, current)
    try:
        mu = np.linalg.eigvals(np.linalg.solve(np.eye(len(stein)) - stein,
                                               kron_f - kron_a))
    except np.linalg.LinAlgError:
        return step / 2.0
    mu = mu.real[mu.real < 0.0]  # a near-real pair keeps its real part
    reach = -1.0 / float(mu.min()) if mu.size else np.inf
    if reach > current - sigma:
        return current - sigma
    return (1.0 - MARE_FRONT_RTOL) * reach


def _deadbeat_gain(Abar: np.ndarray, ctrb: np.ndarray) -> np.ndarray:
    """Ackermann gain K with (Abar + BK)^n = 0 for a single-input B.

    ``ctrb`` is the invertible controllability matrix [B, Abar B, ...,
    Abar^(n-1)B]; the caller builds it once, for its rank test too.
    """
    n = Abar.shape[0]
    last_row = np.linalg.solve(ctrb.T, np.eye(n)[:, -1])
    return -(last_row @ np.linalg.matrix_power(Abar, n))[None, :]


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


def _newton(Abar, B, sigma: float, P, operator, kron_a, tight: bool):
    """Newton steps at one sigma; returns ((P, K, residual) or None, solves).

    ``operator`` is the Schur-stable Stein operator of the gain K that is
    optimal for ``P``, or of the start gain when ``P`` is None. Each step
    solves for the increment D = operator(D) + MARE(P) - P, which equals
    Hewer's step P_next = operator(P_next) + I but keeps the rounding of the
    solve relative to the shrinking increment rather than to P. Without
    ``tight`` (an intermediate sigma) one step is taken; with it (the
    target), steps go on until the relative step is at most MARE_STEP_RTOL
    and either no longer shrinks or, converging quadratically, predicts a
    next step rel_step^3 / prev_step^2 at most machine epsilon. They also
    stop once two relative Riccati residuals in a row are at rounding, at
    most n eps (1 + ||Abar||_F^2), and the gain's operator is Schur stable:
    the last step then started from a solution exact to rounding. Near
    sigma_c the Stein equation is so badly conditioned that the step itself
    can stay at a rounding noise of 1e-6 to 1e-4, above MARE_STEP_RTOL.
    The result is None when a Stein solve is singular, B'PB is not
    positive, or MARE_SOLVES_PER_SIGMA solves pass without convergence.
    """
    n = Abar.shape[0]
    identity = np.eye(n * n)
    eps = np.finfo(float).eps
    rounding = n * eps * (1.0 + float(np.linalg.norm(Abar)) ** 2)
    if P is None:
        P, defect = np.zeros((n, n)), np.eye(n)
    else:
        defect, _ = _riccati_defect(Abar, B, sigma, P)
    prev_step, prev_residual = None, np.inf
    for solves in range(1, MARE_SOLVES_PER_SIGMA + 1):
        try:
            increment = np.linalg.solve(identity - operator, defect.ravel()).reshape(n, n)
        except np.linalg.LinAlgError:
            return None, solves
        P = P + (increment + increment.T) / 2.0
        defect, K = _riccati_defect(Abar, B, sigma, P)
        if K is None:
            return None, solves
        norm_P = float(np.linalg.norm(P))
        rel_step = float(np.linalg.norm(increment)) / norm_P
        residual = float(np.linalg.norm(defect)) / norm_P
        if not tight or prev_step is not None and rel_step <= MARE_STEP_RTOL and (
                prev_step <= rel_step or rel_step ** 3 <= eps * prev_step ** 2):
            return (P, K, residual), solves
        operator = _stein_operator(_kron_transposed(Abar + B @ K), kron_a, sigma)
        if max(prev_residual, residual) <= rounding and _schur_stable(operator):
            return (P, K, residual), solves
        prev_step, prev_residual = rel_step, residual
    return None, MARE_SOLVES_PER_SIGMA


def _riccati_defect(Abar, B, sigma: float, P):
    """MARE(P) - P and the gain K = -(B'PB)^-1 B'P Abar; K is None unless B'PB > 0."""
    PB = P @ B
    btpb = float((B.T @ PB).item())
    if not btpb > 0.0:
        return None, None
    gain_dir = Abar.T @ PB
    defect = Abar.T @ P @ Abar - sigma * (gain_dir @ gain_dir.T) / btpb + np.eye(len(P)) - P
    return (defect + defect.T) / 2.0, -gain_dir.T / btpb


def modal_radii(model: LimasModel, spec: SpectralPair, K) -> np.ndarray:
    """Spectral radius of every non-consensus mode A - lp*Ap + lc*BK.

    Valid only with the positional mode pairing of a SpectralPair, i.e.
    under commuting Laplacians. All radii below one certifies consensus.
    """
    K = as_matrix(K, rows=1, cols=model.n, name="K")
    modes = (model.A - spec.lambda_p[1:, None, None] * model.Ap
             + spec.lambda_c[1:, None, None] * (model.B @ K))
    return np.abs(eig_general(modes)).max(axis=1)


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesized gain with the diagnostics that produced and verified it."""

    K: np.ndarray
    sigma: float
    mare: MareSolution | None
    modal_radii: np.ndarray


def synthesize_gain(model: LimasModel, spec: SpectralPair,
                    sufficient: SufficientResult | None = None) -> SynthesisResult:
    """Synthesize the common feedback gain under the sufficient condition.

    Solves the modified Riccati equation for the worst-case scaled state
    matrix at the smallest per-mode margin achieved by the midpoint gain
    scale, forms K = -k* (B'PB)^-1 B'PA, and verifies every modal radius.
    With Abar = alpha_max * A that gain is (k* / alpha_max) times the gain
    -(B'PB)^-1 B'P Abar that solve_mare returns, so it is not formed again.
    The margin is clipped into [0, 1]; one at or below the critical margin
    surfaces as solve_mare's Divergence. A gain that leaves any mode
    unstable is reported as SynthesisFailed, never returned silently.
    """
    if sufficient is None:
        sufficient = sufficient_check(model, spec)
    if not sufficient.holds:
        raise SynthesisFailed("sufficient condition does not hold")

    alpha_max = sufficient.alpha.alpha_max
    if alpha_max == 0.0:
        K = np.zeros((1, model.n))
        radii = modal_radii(model, spec, K)
        return SynthesisResult(K, 0.0, None, radii)

    sigma = float(np.clip(np.min(sufficient.sigma_modes), 0.0, 1.0))
    mare = solve_mare(alpha_max * model.A, model.B, sigma)
    K = (sufficient.k_star / alpha_max) * mare.K
    radii = modal_radii(model, spec, K)
    if float(radii.max()) >= 1.0:
        raise SynthesisFailed(
            f"synthesized gain leaves a modal radius at {float(radii.max()):g}")
    return SynthesisResult(K, sigma, mare, radii)


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


def necessary_check(model: LimasModel, spec: SpectralPair) -> NecessaryResult:
    """Evaluate the determinant-based necessary condition.

    Requires commuting Laplacians (implied by ``spec``) and per-mode
    controllability, but not proportional coupling. gamma_c is the
    communication eigenratio lambda_c_max / lambda_c_min over modes, and
    ``dets`` are the |det M_i| of the mode matrices M_i = A - lp_i*Ap.

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
    lam_c = _communication_modes(model, spec)
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


def scalar_check(a: float, lambda_p, lambda_c) -> ScalarResult:
    """Evaluate the scalar consensusability conditions.

    ``lambda_p`` and ``lambda_c`` are the non-consensus mode eigenvalues of
    the physical and communication Laplacians (one structural zero already
    removed from each). No commuting assumption is needed; only spectral
    extremes enter.
    """
    lp = np.asarray(lambda_p, dtype=float).ravel()
    lc = np.asarray(lambda_c, dtype=float).ravel()
    if lp.size == 0 or lc.size == 0:
        raise EmptyRange("scalar conditions need at least one mode per graph")
    if float(lc.min()) <= 0.0:
        raise ValueError("communication modes must be strictly positive")
    a = float(a)
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

    ``consensusable_certified`` is True only when a gain was produced and
    every verified deviation-mode radius is strictly below one.
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

    def certify(self, method: str, max_radius: float) -> None:
        """Record a verified stability certificate for the reported gain."""
        self.certificate_method = method
        self.certified_radius = float(max_radius)
        self.consensusable_certified = max_radius < 1.0
        if self.consensusable_certified:
            self.verdict = "consensusable"

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
                "alpha_min": s.alpha.alpha_min, "alpha_max": s.alpha.alpha_max,
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
        else:
            out["certificate"] = None
        out["consensusable_certified"] = self.consensusable_certified
        out["verdict"] = self.verdict
        return out


def analyze(model: LimasModel) -> AnalysisReport:
    """Run the full consensusability workflow on one model.

    Assumption checks always run. The sufficient and necessary conditions
    run when their assumptions hold; failures are recorded in the report
    instead of raised. Scalar models additionally get the interval
    conditions, which need no commuting assumption. Any produced gain is
    verified before the report claims consensusability: mode by mode when
    the Laplacians commute, otherwise by projecting the stacked closed loop.
    """
    spec, diagonalize_error = None, None
    try:
        spec = simultaneous_diagonalize(model.laplacian_p, model.laplacian_c)
        commute = spec.commute
    except NotCommuting as exc:
        commute = exc.commute
        diagonalize_error = f"Laplacians do not commute (residual {commute.residual:g})"
    except DegenerateSpectrum as exc:
        commute, diagonalize_error = exc.commute, str(exc)
    a1 = AssumptionCheck(commute.ok, commute.residual)
    a2 = model.controllability_check
    a3, alpha_eff = model.coupling_check

    report = AnalysisReport(
        n=model.n, N=model.N,
        alpha=alpha_eff,
        lambda_p=model.spectrum_p.tolist(),
        lambda_c=model.spectrum_c.tolist(),
        assumption_commuting=a1,
        assumption_controllability=a2,
        assumption_coupling=a3,
    )

    if spec is None:
        report.sufficient_error = report.necessary_error = diagonalize_error
    else:
        report.lambda_p_paired = spec.lambda_p.tolist()
        report.lambda_c_paired = spec.lambda_c.tolist()
        try:
            report.sufficient = sufficient_check(model, spec)
        except AssumptionViolated as exc:
            report.sufficient_error = str(exc)
        try:
            report.necessary = necessary_check(model, spec)
        except AssumptionViolated as exc:
            report.necessary_error = str(exc)

    b_scalar = float(model.B.item()) if model.n == 1 else None
    if model.n == 1 and b_scalar != 0.0:
        # Scalar normal form: coupling strength folds into the physical
        # modes and b into the gain, leaving a unit input coefficient.
        ap = float(model.Ap.item())
        try:
            report.scalar = scalar_check(float(model.A.item()),
                                         ap * model.spectrum_p[1:],
                                         model.spectrum_c[1:])
        except ValueError as exc:
            report.synthesis_error = report.synthesis_error or str(exc)

    if spec is not None and report.sufficient is not None and report.sufficient.holds:
        try:
            synth = synthesize_gain(model, spec, sufficient=report.sufficient)
            report.gain = synth.K.ravel().tolist()
            report.gain_source = "riccati"
            report.mare_sigma = synth.sigma
            if synth.mare is not None:
                report.mare_iterations = synth.mare.iterations
            report.modal_radii = synth.modal_radii.tolist()
            report.certify("modal-radii", float(synth.modal_radii.max()))
        except (SynthesisFailed, Divergence, NotControllable) as exc:
            report.synthesis_error = str(exc)

    if report.gain is None and report.scalar is not None \
            and report.scalar.k_recommended is not None:
        report.gain = [report.scalar.k_recommended / b_scalar]
        report.gain_source = "scalar-interval"
        if spec is not None:
            radii = modal_radii(model, spec, [report.gain])
            report.modal_radii = radii.tolist()
            report.certify("modal-radii", float(radii.max()))
        else:
            # No modal radii without commuting Laplacians: certify by
            # direct projection of the stacked closed loop instead.
            check = verify_gain(model, [report.gain])
            report.certify("projected-radius", check.max_radius)

    refuted = (report.necessary is not None and not report.necessary.holds) \
        or (report.scalar is not None and not report.scalar.necessary)
    if not report.consensusable_certified and refuted:
        report.verdict = "not-consensusable"
    return report
