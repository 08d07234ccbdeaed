"""Shared fixtures and randomized model builders for the test suite."""

from __future__ import annotations

import importlib.util
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from limas import (
    LimasModel,
    SpectralPair,
    WeightedGraph,
    laplacian,
    oracle,
)
from limas.analysis import MareSolution, _critical_margin
from limas.errors import Divergence, NotControllable, ShapeMismatch
from limas.linalg import (
    _reflector,
    as_matrix,
    as_square,
    eig_general,
    eig_sym,
    in_completion_basis,
    is_controllable,
)
from limas.simulator import STACKED_LOOP_BYTES

A_SHOWCASE = np.array([[1.0, 2.0], [0.0, 1.5]])
B_SHOWCASE = np.array([[0.0], [1.0]])

# (A, B, alpha, physical weight) of three n = 1, N = 2 models of a magnitude
# fuzz, each with one communication edge of weight 1.0: their scalar-interval
# gain reads modal radius 0.0, the rounding of a mode whose terms cancel
ROUNDING_FUZZ = {
    "m1200": (2.4221544028079082e+17, -0.7627102069246722,
              -0.4558835096655697, 0.011123941571518354),
    "m535": (-7.770361772764689e+52, -0.6882257637161541,
             0.16687112022732287, 0.031484340192645746),
    "m1180": (-7.444235249821268e+63, -0.48498141898110864,
              -0.4481586404627794, 0.8300176295877113),
}


# contents that json.loads cannot turn into a document: bytes that are not
# UTF-8, an integer literal past Python's 4 300-digit limit and nesting past
# the recursion limit
UNREADABLE_CONTENTS = {
    "not-utf8": b"\xff\xfe{}",
    "long-integer": b"9" * 5000,
    "deep-nesting": b"[" * 100_000,
}

# The largest N n whose stacked loop, (N n)^2 floats, simulate still steps
# through; beyond it, at n >= 2, simulate steps through the two Laplacians.
STACKED_SIZE = math.isqrt(STACKED_LOOP_BYTES // 8)


def laplacian_agents(n: int) -> int:
    """The fewest agents of n states each that simulate steps through the Laplacians."""
    return STACKED_SIZE // n + 1


def sigma_critical(A, scale: float) -> float:
    """The critical Riccati margin of scale * A, as sufficient_check reads it."""
    return _critical_margin(eig_general(scale * as_square(A)))


def cycle4_graph(weight: float = 0.1) -> WeightedGraph:
    """4-node cycle 1-2, 2-4, 4-3, 3-1 (0-based here)."""
    return WeightedGraph(4, [(0, 1, weight), (1, 3, weight),
                             (2, 3, weight), (0, 2, weight)])


def four_agent_model(alpha: float = 0.3, gc: WeightedGraph | None = None) -> LimasModel:
    """Two-state agents on a weight-0.1 cycle with a unit complete overlay."""
    return LimasModel(A_SHOWCASE, B_SHOWCASE, cycle4_graph(),
                      gc if gc is not None else WeightedGraph.complete(4),
                      alpha=alpha)


def overflowing_modes_model(physical: str) -> LimasModel:
    """a = 1e308, b = 1 and ap = 0.3 a on N = 4 with a unit complete communication
    graph, and a complete or cycle physical graph of weight 100: every deviation
    mode a - lp*ap is beyond the float range. On complete(4) each is about
    -1.19e310, and a gain of about 2.98e309 zeroes them all (consensusable in
    exact arithmetic)."""
    gp = getattr(WeightedGraph, physical)(4, 100.0)
    return LimasModel([[1e308]], [[1.0]], gp, WeightedGraph.complete(4), alpha=0.3)


@pytest.fixture
def showcase_model() -> LimasModel:
    return four_agent_model()


@pytest.fixture(scope="module")
def workloads():
    """benchmarks/workloads.py, loaded from the source tree."""
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


def random_connected_graph(rng, N: int, w_lo: float = 0.05, w_hi: float = 0.5,
                           extra_p: float = 0.4) -> WeightedGraph:
    """Random spanning tree plus extra edges, weights uniform in [w_lo, w_hi]."""
    edges = {}
    order = rng.permutation(N)
    for idx in range(1, N):
        i = int(order[idx])
        j = int(order[int(rng.integers(0, idx))])
        a, b = min(i, j), max(i, j)
        edges[(a, b)] = float(rng.uniform(w_lo, w_hi))
    for a in range(N):
        for b in range(a + 1, N):
            if (a, b) not in edges and rng.random() < extra_p:
                edges[(a, b)] = float(rng.uniform(w_lo, w_hi))
    return WeightedGraph(N, [(i, j, w) for (i, j), w in edges.items()])


def commuting_graph_pair(rng, N: int) -> tuple[WeightedGraph, WeightedGraph]:
    """A pair of graphs whose Laplacians commute.

    Either the communication graph scales the physical one, or it combines
    the same base graph with a uniform complete overlay; both constructions
    keep all weights positive and commute exactly.
    """
    base = random_connected_graph(rng, N)
    scale_p = float(rng.uniform(0.2, 1.5))
    gp = WeightedGraph(N, [(i, j, scale_p * w) for i, j, w in base.edges])
    if rng.random() < 0.3:
        scale_c = float(rng.uniform(0.3, 2.0))
        gc = WeightedGraph(N, [(i, j, scale_c * w) for i, j, w in base.edges])
    else:
        mix = float(rng.uniform(0.0, 1.0))
        overlay = float(rng.uniform(0.2, 1.0))
        base_w = {(i, j): w for i, j, w in base.edges}
        gc = WeightedGraph(N, [(i, j, overlay + mix * base_w.get((i, j), 0.0))
                               for i in range(N) for j in range(i + 1, N)])
    return gp, gc


def random_state_matrix(rng, n: int, rho_lo: float = 0.3,
                        rho_hi: float = 1.4) -> np.ndarray:
    A = rng.uniform(-1.0, 1.0, (n, n))
    rho = max(float(np.max(np.abs(np.linalg.eigvals(A)))), 1e-3)
    return A * (float(rng.uniform(rho_lo, rho_hi)) / rho)


def random_coupled_model(rng, N: int | None = None, n: int | None = None,
                         alpha_scale: float = 0.25, commuting: bool = True) -> LimasModel:
    """Random model with proportional coupling, on commuting graphs unless
    ``commuting`` is False, then on two independent random connected graphs."""
    N = N if N is not None else int(rng.integers(3, 8))
    n = n if n is not None else int(rng.integers(1, 5))
    gp, gc = commuting_graph_pair(rng, N) if commuting else \
        (random_connected_graph(rng, N), random_connected_graph(rng, N, w_lo=0.1, w_hi=1.0))
    A = random_state_matrix(rng, n)
    B = random_input(rng, n)
    alpha = float(rng.uniform(-alpha_scale, alpha_scale))
    return LimasModel(A, B, gp, gc, alpha=alpha)


def traced_peak_in_loops(check, N: int, n: int) -> float:
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


def random_input(rng, n: int) -> np.ndarray:
    """Uniform n x 1 input matrix in [-1, 1], redrawn until its norm is at least 0.1."""
    B = rng.uniform(-1.0, 1.0, (n, 1))
    while float(np.linalg.norm(B)) < 0.1:
        B = rng.uniform(-1.0, 1.0, (n, 1))
    return B


def random_scalar_instance(rng, N: int | None = None, w_hi: float = 0.5):
    """(a, gp, gc) for the scalar condition suites; both graphs connected."""
    N = N if N is not None else int(rng.integers(3, 7))
    gp = random_connected_graph(rng, N, w_lo=0.05, w_hi=w_hi)
    gc = random_connected_graph(rng, N, w_lo=0.1, w_hi=1.0)
    a = float(rng.uniform(-2.0, 2.0))
    return a, gp, gc


def laplacian_model(Lp, Lc) -> LimasModel:
    """A model whose Laplacians are the arrays ``Lp`` and ``Lc`` themselves.

    The pair checks of limas.graphs take a model; this hands them square
    matrices of one size with the all-ones vector in their kernel, some of
    which no weighted graph builds. The plant is a placeholder (n = 1, an
    empty physical graph, a communication path), and the arrays, neither
    copied nor frozen, take the place of its cached Laplacians, so that its
    norms and spectra are those of the arrays, computed on first access.
    """
    Lp, Lc = np.asarray(Lp, dtype=float), np.asarray(Lc, dtype=float)
    N = len(Lp)
    model = LimasModel([[1.0]], [[1.0]], WeightedGraph(N, []), WeightedGraph.path(N), alpha=0.0)
    vars(model).update(laplacian_p=Lp, laplacian_c=Lc)
    return model


def unit_scalar_model(a: float, gp: WeightedGraph, gc: WeightedGraph) -> LimasModel:
    """The scalar agent a with ap = b = 1: its physical and communication modes
    are the Laplacian eigenvalues of gp and gc, and its gain is the normalized one."""
    return LimasModel([[a]], [[1.0]], gp, gc, Ap=[[1.0]])


def _non_commuting_graphs(rng, N: int) -> tuple[WeightedGraph, WeightedGraph]:
    """Two random connected graphs on N nodes, redrawn until their Laplacians do not commute."""
    while True:
        gp = random_connected_graph(rng, N)
        gc = random_connected_graph(rng, N, w_lo=0.1, w_hi=1.0)
        if not unit_scalar_model(0.0, gp, gc).commute_check.holds:
            return gp, gc


def _edge_kind_model(rng, k: int) -> LimasModel:
    """The k-th edge-kind model: no physical edges, a complete communication
    graph, or alpha = 0 with commuting graphs, in turn; n is 1 to 3."""
    N, n = int(rng.integers(3, 8)), int(rng.integers(1, 4))
    A, B = random_state_matrix(rng, n), random_input(rng, n)
    alpha = float(rng.uniform(-0.25, 0.25))
    if k % 3 == 0:
        gp, gc = WeightedGraph(N, []), random_connected_graph(rng, N, w_lo=0.1, w_hi=1.0)
    elif k % 3 == 1:
        gp, gc = random_connected_graph(rng, N), WeightedGraph.complete(N, float(rng.uniform(0.2, 1.0)))
    else:
        (gp, gc), alpha = commuting_graph_pair(rng, N), 0.0
    return LimasModel(A, B, gp, gc, alpha=alpha)


def verdict_corpus(seed: int = 0, per_class: int = 60) -> dict[str, list[LimasModel]]:
    """A seeded corpus of ``per_class`` models in each of five classes.

    "scalar": n = 1 with non-commuting Laplacians, Ap = B = 1 (the draws of
    :func:`random_scalar_instance`); "proportional": commuting Laplacians with
    Ap = alpha*A, n 1-4 (:func:`random_coupled_model`); "free-ap": commuting
    Laplacians with a free Ap, n 2-4; "non-commuting": non-commuting
    Laplacians with Ap = alpha*A, n 2-3; "edge": no physical edges, a complete
    communication graph and alpha = 0, in turn. The classes draw from one
    generator in this order, so a class's models depend on the seed only.
    """
    rng = np.random.default_rng(seed)
    corpus: dict[str, list[LimasModel]] = {name: [] for name in (
        "scalar", "proportional", "free-ap", "non-commuting", "edge")}
    for _ in range(per_class):
        model = unit_scalar_model(*random_scalar_instance(rng))
        while model.commute_check.holds:
            model = unit_scalar_model(*random_scalar_instance(rng))
        corpus["scalar"].append(model)
    corpus["proportional"] = [random_coupled_model(rng) for _ in range(per_class)]
    for _ in range(per_class):
        N, n = int(rng.integers(3, 8)), int(rng.integers(2, 5))
        gp, gc = commuting_graph_pair(rng, N)
        A, B = random_state_matrix(rng, n), random_input(rng, n)
        Ap = rng.uniform(-0.3, 0.3, (n, n))
        corpus["free-ap"].append(LimasModel(A, B, gp, gc, Ap=Ap))
    for _ in range(per_class):
        N, n = int(rng.integers(3, 8)), int(rng.integers(2, 4))
        gp, gc = _non_commuting_graphs(rng, N)
        A, B = random_state_matrix(rng, n), random_input(rng, n)
        corpus["non-commuting"].append(
            LimasModel(A, B, gp, gc, alpha=float(rng.uniform(-0.25, 0.25))))
    corpus["edge"] = [_edge_kind_model(rng, k) for k in range(per_class)]
    return corpus


def signed_entries(rng, shape, shift: int) -> np.ndarray:
    """Entries of random size in [0.5, 2] whose signs run -, 0, + along the
    flat index, from the sign of ``shift`` % 3 in that order: three
    consecutive shifts give every entry each sign once."""
    signs = np.array([-1.0, 0.0, 1.0])[(np.arange(math.prod(shape)) + shift) % 3]
    return (signs * rng.uniform(0.5, 2.0, signs.size)).reshape(shape)


def kron_closed_loop(model: LimasModel, K) -> np.ndarray:
    """The stacked closed loop as the np.kron expression that defines it,
    the bitwise reference of limas.simulator.closed_loop_matrix."""
    K = as_matrix(K, rows=1, cols=model.n, name="K")
    return (np.kron(np.eye(model.N), model.A)
            - np.kron(model.laplacian_p, model.Ap)
            + np.kron(model.laplacian_c, model.B @ K))


def broadcast_deviation_loop(model: LimasModel, K) -> np.ndarray:
    """M - (11'/N) (x) A for the stacked loop M, with A/N broadcast over every
    block in one subtraction, the bitwise reference of the deviation update
    of limas.simulator.simulate."""
    N, n = model.N, model.n
    D = kron_closed_loop(model, K)
    D.reshape(N, n, N, n)[...] -= model.A[None, :, None, :] / N
    return D


def broadcast_agent_norms(deviations, N: int, n: int) -> np.ndarray:
    """Per-agent norms of stacked deviation rows, each agent's block scaled by
    the power of two of its largest entry in broadcast passes, the bitwise
    reference of the norms of limas.simulator.simulate."""
    blocks = deviations.reshape(-1, N, n)
    exponent = np.frexp(np.abs(blocks).max(axis=2))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(blocks, -exponent[..., None]), axis=2),
                    exponent)


def copying_completion_basis(M, n: int = 1) -> np.ndarray:
    """The rank-n reflector update of limas.linalg.in_completion_basis as one
    expression that copies at each step, its bitwise reference."""
    N = M.shape[0] // n
    v, beta = _reflector(N)
    V = (v[:, None, None] * np.eye(n)).reshape(N * n, n)
    MV = beta * (M @ V)
    G = (0.5 * beta) * (V.T @ MV)
    return M - V @ (beta * (V.T @ M) - G @ V.T) - (MV - V @ G) @ V.T


def project(Atil, n: int = 1) -> np.ndarray:
    """A raw stacked matrix of blocks of size n restricted to the deviations by
    the oracle's projection kernel, on a fresh copy, so ``Atil`` is not written."""
    return oracle._deviation_block(np.array(Atil, dtype=float), n)


def spectral_radius(M) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    values = eig_general(M)
    if values.size == 0:
        return 0.0
    return float(np.max(np.abs(values)))


def count_calls(monkeypatch, name: str = "eigh") -> list[int]:
    """Count the calls of np.linalg.<name> from here on; the list holds one entry per call."""
    calls = []
    solve = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def ones_completion(n: int) -> np.ndarray:
    """Orthogonal basis whose first column is the normalized all-ones vector.

    The basis is the Householder reflector H = I - 2vv'/v'v with
    v = e_1 + 1/sqrt(n) 1, formed in O(n^2). H maps e_1 to -1/sqrt(n) 1, so
    its first column is negated, and set to exactly 1/sqrt(n). With this sign
    v_1 = 1 + 1/sqrt(n) is a sum of two positive numbers and loses no digits
    to cancellation. The same ``n`` gives the same bits on every call.
    """
    if n < 1:
        raise ShapeMismatch("completion needs n >= 1")
    v, beta = _reflector(n)
    Q = np.eye(n) - np.outer(v, beta * v)
    Q[:, 0] = 1.0 / math.sqrt(n)
    return Q


def lift_deviation_basis(V) -> np.ndarray:
    """[1/sqrt(N), W V] for the deviation basis W of :func:`ones_completion`.

    ``V`` is (N-1) x (N-1), a basis in the coordinates of W = H[:, 1:]. Since
    v[1:] = s 1 with s = 1/sqrt(N), W V = [0; V] - beta v (s 1'V) is a rank-one
    update, O(N^2) instead of the O(N^3) product with W. Column 0 is exactly
    1/sqrt(N); for an orthogonal V the result is orthogonal.
    """
    N = V.shape[0] + 1
    v, beta = _reflector(N)
    s = 1.0 / math.sqrt(N)
    phi = np.empty((N, N))
    phi[:, 0] = s
    phi[0, 1:] = 0.0
    phi[1:, 1:] = V
    phi[:, 1:] -= np.outer(v, (beta * s) * V.sum(axis=0))
    return phi


def joint_basis(spec: SpectralPair, Lp, Lc) -> np.ndarray:
    """An orthogonal basis that diagonalizes both Laplacians of ``spec`` in its order.

    The lifted ``eigh`` basis of the reduced Lp + t Lc, t = sqrt(2) (1 + ||Lp||_F)
    / (1 + ||Lc||_F): a joint mode (lp, lc) is an eigenvector of it with the
    eigenvalue lp + t lc, and t keeps distinct joint modes apart. Column i + 1
    is the one whose rank among those eigenvalues is the rank of
    lambda_p[i + 1] + t lambda_c[i + 1] among the modes of ``spec``, so the
    basis follows the pair's order without reading how the pair was formed.
    """
    Lp, Lc = as_square(Lp, name="Lp"), as_square(Lc, name="Lc")
    t = math.sqrt(2.0) * (1.0 + np.linalg.norm(Lp)) / (1.0 + np.linalg.norm(Lc))
    mixed = in_completion_basis(Lp + t * Lc)[1:, 1:]
    lifted = lift_deviation_basis(np.linalg.eigh((mixed + mixed.T) / 2.0)[1])
    basis = lifted.copy()
    basis[:, 1 + np.argsort(spec.lambda_p[1:] + t * spec.lambda_c[1:], kind="stable")] \
        = lifted[:, 1:]
    return basis


def modal_deviation_norms(model: LimasModel, K, x0, steps: int) -> np.ndarray:
    """Per-agent deviation norms of a run, iterated mode by mode in the joint basis.

    With X the (N, n) agent states and phi the :func:`joint_basis` of the
    model's ``joint_spectrum``, Z = phi' X holds one row per joint mode; row 0 is the consensus
    mode and rows 1.. follow their own blocks A - lp*Ap + lc*BK. The consensus mode never enters the iteration, so
    each step's deviations phi[:, 1:] Z[1:] keep their relative accuracy
    whatever the mean does. Returns a (steps + 1, N) array.
    """
    K = as_matrix(K, rows=1, cols=model.n, name="K")
    spec = model.joint_spectrum
    modes = (model.A - spec.lambda_p[1:, None, None] * model.Ap
             + spec.lambda_c[1:, None, None] * (model.B @ K))
    W = joint_basis(spec, model.laplacian_p, model.laplacian_c)[:, 1:]
    z = W.T @ np.asarray(x0, dtype=float).reshape(model.N, model.n)
    norms = np.empty((steps + 1, model.N))
    for t in range(steps + 1):
        norms[t] = np.linalg.norm(W @ z, axis=1)
        z = np.einsum("ijk,ik->ij", modes, z)
    return norms


def deviation(x, N: int, n: int) -> np.ndarray:
    """Deviation of each agent block from the mean of all blocks.

    Equals the centering projection ((I_N - ones/N) (x) I_n) applied to x.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != N * n:
        raise ShapeMismatch(f"state length {x.size} does not match N*n = {N * n}")
    blocks = x.reshape(N, n)
    return (blocks - blocks.mean(axis=0)).ravel()


def exact_stabilizing_interval(a: float, Lp, Lc) -> tuple[float, float]:
    """Ends of the open gain interval where a*I - Lp + k*Lc is stable on the deviations.

    On the deviation subspace the loop is base + k*S with base = W'(aI - Lp)W
    and S = W'LcW, definite for a connected ``Lc``. By Loewner monotonicity
    -I < base + k*S < I is one interval (k_lo, k_hi): k_lo is the largest
    generalized eigenvalue of (-I - base, S) and k_hi the smallest of
    (I - base, S), both read after one Cholesky factorization S = LL'. The
    interval is empty when k_lo >= k_hi.
    """
    Lp = as_square(Lp, name="Lp")
    N = Lp.shape[0]
    W = ones_completion(N)[:, 1:]
    base = W.T @ (a * np.eye(N) - Lp) @ W
    S = W.T @ as_square(Lc, name="Lc") @ W
    identity = np.eye(N - 1)
    L_inv = np.linalg.solve(np.linalg.cholesky((S + S.T) / 2.0), identity)
    base = (base + base.T) / 2.0
    k_lo = np.linalg.eigvalsh(L_inv @ (-identity - base) @ L_inv.T)[-1]
    k_hi = np.linalg.eigvalsh(L_inv @ (identity - base) @ L_inv.T)[0]
    return float(k_lo), float(k_hi)


def jury_lp_margin(model: LimasModel) -> float:
    """Largest t such that some gain K keeps every Jury inequality of every mode >= t (n = 2).

    Mode i of the model's joint_spectrum closes as F_i = M_i + lc_i*BK with
    M_i = A - lp_i*Ap. Its characteristic polynomial z^2 - tr(F_i) z + det(F_i)
    is Schur stable exactly when 1 - tr + det, 1 + tr + det, 1 - det and 1 + det are all
    positive. Each is affine in K, as tr(F_i) = tr(M_i) + lc_i*KB and
    det(F_i) = det(M_i) + lc_i*K adj(M_i)B. With each row g + hK scaled so
    that ||(g, h)|| = 1, the LP maximizes t subject to g + hK >= t and t <= 1
    over (K, t), by enumerating its vertices: every triple of constraints
    taken as equalities. Some gain makes every mode stable exactly when the
    result is positive. Raises ValueError when no vertex is feasible.
    """
    if model.n != 2:
        raise ShapeMismatch(f"the Jury LP here is written for n = 2, got n = {model.n}")
    spec = model.joint_spectrum
    lc = spec.lambda_c[1:]
    M = model.A - spec.lambda_p[1:, None, None] * model.Ap
    B = model.B.ravel()
    adj_b = np.column_stack((M[:, 1, 1] * B[0] - M[:, 0, 1] * B[1],
                             M[:, 0, 0] * B[1] - M[:, 1, 0] * B[0]))
    tr0, det0 = np.trace(M, axis1=1, axis2=2), np.linalg.det(M)
    tr1, det1 = lc[:, None] * B, lc[:, None] * adj_b
    g = np.concatenate([1.0 - tr0 + det0, 1.0 + tr0 + det0, 1.0 - det0, 1.0 + det0])
    h = np.concatenate([det1 - tr1, det1 + tr1, -det1, det1])
    scale = np.hypot(g, np.linalg.norm(h, axis=1))
    # constraints rows @ (K1, K2, t) >= rhs
    rows = np.vstack([np.column_stack((h / scale[:, None], -np.ones(g.size))), [0.0, 0.0, -1.0]])
    rhs = np.append(-g / scale, -1.0)
    triples = np.array(list(itertools.combinations(range(rows.shape[0]), 3)))
    mats, vecs = rows[triples], rhs[triples]
    regular = np.abs(np.linalg.det(mats)) > 1e-12
    x = np.linalg.solve(mats[regular], vecs[regular][..., None])[..., 0]
    slack = 1e-9 * (1.0 + np.abs(x).max(axis=1))
    feasible = (x @ rows.T >= rhs - slack[:, None]).all(axis=1)
    if not feasible.any():
        raise ValueError("the Jury LP has no feasible vertex")
    return float(x[feasible, 2].max())


def _fractions(values) -> np.ndarray:
    """An object array of the exact values of a float array."""
    values = np.asarray(values, dtype=float)
    return np.array([Fraction(float(x)) for x in values.ravel()],
                    dtype=object).reshape(values.shape)


def _exact_laplacian(g: WeightedGraph) -> np.ndarray:
    """The Laplacian of ``g`` in exact arithmetic on its float weights."""
    L = np.full((g.node_count, g.node_count), Fraction(0), dtype=object)
    for i, j, w in zip(g.i.tolist(), g.j.tolist(), _fractions(g.w)):
        L[i, j] -= w
        L[j, i] -= w
        L[i, i] += w
        L[j, j] += w
    return L


def _exact_quotient_loop(model: LimasModel, K) -> np.ndarray:
    """The deviation loop D M E of the stacked loop M = I (x) A - Lp (x) Ap + Lc (x) BK,
    exactly, as an object array of Fractions.

    D = [I, -1] (x) I_n takes each agent's state minus the last one's, and
    E = [I; 0] (x) I_n is its right inverse. The consensus subspace, the
    kernel of D, is invariant under M, so D M = (D M E) D and the deviations
    follow D M E. Every float input is read as its exact dyadic value.
    """
    K = as_matrix(K, rows=1, cols=model.n, name="K")
    # the block rows of D L E for a Laplacian L: each row minus the last one
    Dp, Dc = (L[:-1, :-1] - L[-1, :-1] for L in map(_exact_laplacian, (model.gp, model.gc)))
    identity = np.eye(model.N - 1, dtype=int).astype(object)
    return (np.kron(identity, _fractions(model.A)) - np.kron(Dp, _fractions(model.Ap))
            + np.kron(Dc, _fractions(model.B) @ _fractions(K)))


def _dyadic_integers(values) -> tuple[np.ndarray, int]:
    """(X, scale) with ``values`` = X / scale exactly: X an object array of
    Python integers and scale a power of two. ``values`` holds floats or
    Fractions with power-of-two denominators."""
    ratios = [Fraction(x).as_integer_ratio() for x in np.ravel(values)]
    scale = max((q for _, q in ratios), default=1)
    X = np.array([p * (scale // q) for p, q in ratios], dtype=object)
    return X.reshape(np.shape(values)), scale


def _leading_minor_signs(X) -> list[int]:
    """Signs of the leading principal minors of an integer matrix by Bareiss
    elimination, up to and including the first zero one (none follow it)."""
    a = np.array(X, dtype=object)
    signs, prev = [], 1
    for k in range(a.shape[0]):
        pivot = a[k, k]
        signs.append((pivot > 0) - (pivot < 0))
        if pivot == 0:
            break
        # fraction-free step: each division is exact
        a[k + 1:, k + 1:] = (a[k + 1:, k + 1:] * pivot
                             - np.outer(a[k + 1:, k], a[k, k + 1:])) // prev
        prev = pivot
    return signs


def exact_schur_verdict(model: LimasModel, K) -> str | None:
    """"stable", "unstable" or None (undecided): whether the deviations of the
    closed loop of gain K decay, decided exactly, with numpy and Python integers.

    P solves the Stein equation P - L'PL = I of the :func:`_exact_quotient_loop`
    L in float, by one Kronecker solve. Q = P - L'PL is then formed exactly
    for this float P, and the signs of the leading minors of Q and P are read
    by Bareiss elimination. With Q positive definite, P positive definite
    means that L is Schur stable (Lyapunov), and a negative leading minor of
    P that it is not: for a Schur stable L the one solution of P - L'PL = Q
    is the positive definite sum of L'^k Q L^k. Anything else, a singular
    Stein equation included, is undecided: rounding can make the answer
    None but never wrong.
    """
    loop = _exact_quotient_loop(model, K)
    M, scale = _dyadic_integers(loop)
    L = np.array([float(x) for x in loop.ravel()]).reshape(loop.shape)
    m = L.shape[0]
    try:
        P = np.linalg.solve(np.eye(m * m) - np.kron(L.T, L.T),
                            np.eye(m).ravel()).reshape(m, m)
    except np.linalg.LinAlgError:
        return None
    P = (P + P.T) / 2.0
    if not np.isfinite(P).all():
        return None
    P_int, _ = _dyadic_integers(P)
    # scale^2 (P - L'PL) times the scale of P, a positive multiple of Q
    Q = scale * scale * P_int - M.T @ P_int @ M
    if _leading_minor_signs(Q) != [1] * m:
        return None
    signs = _leading_minor_signs(P_int)
    if signs == [1] * m:
        return "stable"
    return "unstable" if -1 in signs else None


def mare_inequality_margin(Abar, B, sigma: float, P) -> float:
    """Largest eigenvalue of Abar'P Abar - sigma*Abar'PB(B'PB)^-1 B'P Abar - P.

    Negative means P strictly satisfies the Riccati inequality at this sigma.
    """
    Abar = as_square(Abar, name="Abar")
    P = as_square(P, name="P")
    B = as_matrix(B, rows=Abar.shape[0], cols=1, name="B")
    PB = P @ B
    gain_dir = Abar.T @ PB
    residual = Abar.T @ P @ Abar \
        - sigma * (gain_dir @ gain_dir.T) / float((B.T @ PB).item()) - P
    return float(eig_sym((residual + residual.T) / 2.0)[-1])


# Stopping rules of the reference fixed point below.
MARE_MAX_ITER = 100_000
MARE_CONVERGENCE_RTOL = 1e-10
MARE_DIVERGENCE_NORM = 1e12


def fixed_point_mare(Abar, B, sigma: float) -> MareSolution:
    """Reference MARE solver: the plain fixed-point iteration of the Riccati map.

    ``Q`` is I, as in analysis.solve_mare. Plain fixed-point iteration from
    P = I, stopping when successive iterates agree to MARE_CONVERGENCE_RTOL
    relative or after MARE_MAX_ITER steps. The recursion converges exactly when
    sigma exceeds the critical margin of Abar, so divergence (norm blow-up
    or iteration cap) is reported as such rather than patched over.
    ``residual`` is the last absolute step and ``K`` the gain
    -(B'PB)^-1 B'P Abar of the returned P.
    """
    Abar = as_square(Abar, name="Abar")
    n = Abar.shape[0]
    B = as_matrix(B, rows=n, cols=1, name="B")
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    if not is_controllable(Abar, B):
        raise NotControllable("(Abar, B) fails the controllability rank test")
    Q = np.eye(n)

    P = np.eye(n)
    for iteration in range(1, MARE_MAX_ITER + 1):
        PB = P @ B
        gain_dir = Abar.T @ PB
        P_next = Abar.T @ P @ Abar \
            - sigma * (gain_dir @ gain_dir.T) / float((B.T @ PB).item()) + Q
        P_next = (P_next + P_next.T) / 2.0
        if float(np.linalg.norm(P_next)) > MARE_DIVERGENCE_NORM:
            raise Divergence(
                f"iterate norm exceeded {MARE_DIVERGENCE_NORM:g} at step "
                f"{iteration} (sigma = {sigma:g} is at or below critical)",
                iterations=iteration)
        diff = float(np.linalg.norm(P_next - P))
        if diff <= MARE_CONVERGENCE_RTOL * float(np.linalg.norm(P)):
            PB = P_next @ B
            K = -(Abar.T @ PB).T / float((B.T @ PB).item())
            return MareSolution(P_next, iteration, diff, K)
        P = P_next
    raise Divergence(
        f"no fixed point within {MARE_MAX_ITER} iterations (sigma = {sigma:g})",
        iterations=MARE_MAX_ITER)
