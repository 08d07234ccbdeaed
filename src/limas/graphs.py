"""Weighted undirected graphs, their Laplacians and joint spectra.

:class:`WeightedGraph` is the one place that checks the edge rules. The
central object downstream is the :class:`SpectralPair`: the eigenvalues of the
physical and the communication Laplacian, paired positionally by one
orthogonal basis that diagonalizes both at once. It exists only for commuting
Laplacians, and :func:`simultaneous_diagonalize`, which forms it, checks the
commutator once and hands that check on with the pair or with its refusal.
That basis is 1/sqrt(N) and a basis V of the deviations from consensus, in
the coordinates of one Householder reflector
(:func:`limas.linalg.in_completion_basis`). It is never lifted to the full
space: the pairing and its gate are read in those coordinates, and when the
communication Laplacian is scalar on the deviations (a complete graph) every
such V pairs the two lists and none is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DegenerateSpectrum, NotCommuting, ShapeMismatch
from .linalg import as_square, in_completion_basis

# Commutator gate: ||Lp Lc - Lc Lp||_F <= COMMUTE_RTOL * ||Lp||_F ||Lc||_F.
COMMUTE_RTOL = 1e-9
# Eigenvalue grouping tolerance for joint diagonalization, relative to ||Lc||_F;
# within it of a multiple of the identity the reduced Lc counts as scalar, and
# (relative to ||Lp_red||_F) the reduced Lp on a cluster of Lc's eigenvalues.
GROUP_RTOL = 1e-8
# Joint-diagonalization check: ||L_red V - V diag||_F <= OFFDIAG_RTOL * ||L||_F
# for the deviation basis V, which for the orthogonal lifted basis phi is
# ||phi' L phi - diag||_F up to rounding.
OFFDIAG_RTOL = 1e-8
# Node pairs are keyed as i*N + j in int64, which stays exact up to this N.
MAX_NODES = 2**31


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with strictly positive edge weights.

    The one owner of the edge rules: ends are integers in 0..N-1, no self-loop,
    no unordered pair twice, weight finite and > 0. ``edges`` holds (i, j,
    weight) triples, or is an (E, 3) array, which is read in one pass. A
    ValueError names the first bad edge by its position; an integer beyond
    the float range counts as +-inf. Edges are stored once, in input order,
    as the read-only arrays ``i``, ``j`` (int64, i < j) and ``w`` (float64).
    """

    node_count: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __init__(self, node_count: int,
                 edges: Iterable[tuple[int, int, float]] | np.ndarray):
        if isinstance(node_count, bool) or not isinstance(node_count, (int, np.integer)):
            raise ValueError(f"node count must be an integer, got {node_count!r}")
        node_count = int(node_count)
        if node_count < 2:
            raise ValueError(f"graph needs at least 2 nodes, got {node_count}")
        if node_count > MAX_NODES:
            raise ValueError(f"graph has more than {MAX_NODES} nodes")
        if isinstance(edges, np.ndarray) and edges.dtype != object:
            rows = np.asarray(edges, dtype=float)
            if rows.size == 0:
                rows = rows.reshape(0, 3)
        else:
            edges = list(edges)
            try:
                triples = set(map(len, edges)) <= {3}
            except TypeError:
                triples = False
            rows = _floats(edges, 3 * len(edges)).reshape(len(edges), 3) if triples else None
        if rows is None or rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError("edges must be (i, j, weight) triples")
        ends = rows[:, :2]
        # a nan, infinite or huge end casts to some integer that the comparison with
        # the float end or the range rejects; a later edge that such an edge's key
        # happens to match is then never the first bad edge
        with np.errstate(invalid="ignore"):
            ij = ends.astype(np.int64)
        lo, hi = np.minimum(ij[:, 0], ij[:, 1]), np.maximum(ij[:, 0], ij[:, 1])
        valid = (ij[:, 0] == ends[:, 0]) & (ij[:, 1] == ends[:, 1]) \
            & (lo >= 0) & (hi < node_count)
        w = rows[:, 2].copy()
        keys = lo * node_count + hi
        self_loop = lo == hi
        bad_weight = ~((w > 0.0) & (w < np.inf))
        ordered = np.sort(keys)
        if (~valid | self_loop | bad_weight).any() or (ordered[1:] == ordered[:-1]).any():
            first = np.zeros(len(keys), dtype=bool)
            first[np.unique(keys, return_index=True)[1]] = True
            rules = ((~valid, f"has an end that is not an integer in 0..{node_count - 1}"),
                     (self_loop, "is a self-loop"),
                     (bad_weight, "weight must be finite and positive"),
                     (~first, "duplicates an earlier edge"))
            k = int(np.argmax(np.logical_or.reduce([mask for mask, _ in rules])))
            raise ValueError(f"edge {k} " + next(reason for mask, reason in rules if mask[k]))
        object.__setattr__(self, "node_count", node_count)
        for name, arr in (("i", lo), ("j", hi), ("w", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as (int, int, float) tuples in input order, built on each access."""
        return tuple(zip(self.i.tolist(), self.j.tolist(), self.w.tolist()))

    @classmethod
    def complete(cls, node_count: int, weight: float = 1.0) -> "WeightedGraph":
        edges = [(i, j, weight) for i in range(node_count) for j in range(i + 1, node_count)]
        return cls(node_count, edges)

    @classmethod
    def cycle(cls, node_count: int, weight: float = 1.0) -> "WeightedGraph":
        if node_count < 3:
            raise ValueError(f"a cycle needs at least 3 nodes, got {node_count}")
        edges = [(i, (i + 1) % node_count, weight) for i in range(node_count)]
        return cls(node_count, edges)

    @classmethod
    def path(cls, node_count: int, weight: float = 1.0) -> "WeightedGraph":
        edges = [(i, i + 1, weight) for i in range(node_count - 1)]
        return cls(node_count, edges)


def _floats(parts, count: int) -> np.ndarray:
    """The ``count`` numbers of the sequences in ``parts``, in order, as one float64
    array made in one C pass; an integer beyond the float range reads as +-inf."""
    try:
        return np.fromiter(chain.from_iterable(parts), float, count)
    except OverflowError:
        return np.array([_float_or_inf(x) for part in parts for x in part], dtype=float)


def _float_or_inf(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return np.inf if x > 0 else -np.inf


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Laplacian (degree minus adjacency) of a weighted graph.

    Symmetric by construction; off-diagonal (i, j) is minus the edge weight
    and each diagonal entry is the sum of incident weights, accumulated in
    edge order.
    """
    N = g.node_count
    L = np.zeros((N, N))
    L[g.i, g.j] = L[g.j, g.i] = -g.w
    ends = np.column_stack((g.i, g.j)).ravel()
    L[np.diag_indices(N)] = np.bincount(ends, weights=np.repeat(g.w, 2), minlength=N)
    return L


def is_connected(g: WeightedGraph) -> bool:
    """Exact union-find connectivity check; stops at the first edge that connects the graph."""
    parent = list(range(g.node_count))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = g.node_count
    for i, j in zip(g.i.tolist(), g.j.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            components -= 1
            if components == 1:
                return True
    return False


class CommuteCheck(NamedTuple):
    ok: bool
    residual: float


def commute_check(Lp, Lc) -> CommuteCheck:
    """Frobenius norm of the commutator Lp Lc - Lc Lp against the COMMUTE_RTOL gate.

    Checks that both are finite square matrices of one size. For symmetric
    inputs (every Laplacian) Lc Lp is the transpose of C = Lp Lc, so one
    product gives the commutator C - C'; other inputs take the second product.
    """
    Lp = as_square(Lp, name="Lp")
    Lc = as_square(Lc, name="Lc")
    if Lp.shape != Lc.shape:
        raise ShapeMismatch(f"Laplacians differ in size: {Lp.shape} vs {Lc.shape}")
    C = Lp @ Lc
    symmetric = np.array_equal(Lp, Lp.T) and np.array_equal(Lc, Lc.T)
    residual = float(np.linalg.norm(C - (C.T if symmetric else Lc @ Lp)))
    gate = COMMUTE_RTOL * float(np.linalg.norm(Lp)) * float(np.linalg.norm(Lc))
    return CommuteCheck(residual <= gate, residual)


@dataclass(frozen=True, eq=False)
class SpectralPair:
    """Joint eigenvalues of two commuting Laplacians.

    Entry i of ``lambda_p`` and of ``lambda_c`` are the eigenvalues of the
    physical and of the communication Laplacian on one shared eigenvector,
    entry 0 on the consensus direction 1/sqrt(N). Beyond the leading zeros
    the lists carry no magnitude ordering. ``commute`` is the commutator
    check the pair passed in :func:`simultaneous_diagonalize`; a pair built
    by hand has none. The pair holds read-only copies of its arrays, and
    compares and hashes by identity.
    """

    lambda_p: np.ndarray
    lambda_c: np.ndarray
    commute: CommuteCheck | None = None

    def __post_init__(self):
        for name in ("lambda_p", "lambda_c"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def simultaneous_diagonalize(Lp, Lc) -> SpectralPair:
    """Jointly diagonalize two commuting Laplacians.

    Raises NotCommuting when the commutator fails the COMMUTE_RTOL gate;
    :func:`commute_check` is also the one validation of both inputs. The
    communication Laplacian is reduced to the complement of the all-ones
    direction (a shared kernel vector of any Laplacian), in the deviation
    columns W of one Householder reflector, as one rank-two update
    (:func:`limas.linalg.in_completion_basis`).

    When the reduced communication Laplacian is scalar, ||Lc_red - c I||_F <=
    GROUP_RTOL * ||Lc||_F with c = trace(Lc) / (N - 1) its mean eigenvalue on
    the deviations (a complete graph), every orthonormal basis of the
    deviations diagonalizes it. The pair is then lambda_p, the ascending
    eigvalsh of the physical Laplacian with entry 0 (the consensus mode) set
    to 0, and lambda_c = [0, c, ..., c]; no eigenvector is formed. The
    full-space spectrum skips the reduction's rounding, which reads a
    two-node graph's 0.2 as 0.19999999999999998. The joint-basis gate
    holds by construction and is not computed: over the lifted eigenbasis of
    the reduced physical Laplacian its residual is that eigensolve's backward
    error, and over any orthonormal deviation basis the communication
    residual is ||Lc_red - c I||_F up to the rounding of the consensus
    column, which the scalar test bounds by GROUP_RTOL * ||Lc||_F <=
    OFFDIAG_RTOL * ||Lc||_F.

    Otherwise the physical Laplacian is reduced too, the reduced
    communication Laplacian is eigendecomposed, Lc_red = V diag V', its
    eigenvalues grouped into near-degenerate clusters (within
    GROUP_RTOL * ||Lc||_F), and the reduced physical Laplacian is
    diagonalized inside each cluster of more than one eigenvalue on which it
    is not already scalar (:func:`_rotate_clusters`, which rotates
    P = Lp_red V with V). Repeated communication eigenvalues are therefore
    handled exactly where naive pairing would fail. The paired eigenvalues
    are 0 and the Rayleigh quotients of the columns of V, read from P and
    Lc_red V; raises DegenerateSpectrum when the eigen-residual
    ||L_red V - V diag||_F exceeds OFFDIAG_RTOL * ||L||_F for either
    Laplacian. As W'W = I and 1'L = 0, that residual is
    ||L phi - phi diag||_F of the lifted basis phi = [1/sqrt(N), W V] up to
    rounding, the off-diagonal residual of phi' L phi.
    """
    commute = commute_check(Lp, Lc)
    if not commute.ok:
        raise NotCommuting(commute)
    # read as commute_check validated them: finite, square, of one size
    Lp, Lc = (np.atleast_2d(np.asarray(L, dtype=float)) for L in (Lp, Lc))
    N = Lp.shape[0]
    Lc_red = in_completion_basis(Lc)[1:, 1:]
    group_tol = GROUP_RTOL * float(np.linalg.norm(Lc))
    c = np.trace(Lc) / max(N - 1, 1)
    if float(np.linalg.norm(Lc_red - c * np.eye(N - 1))) <= group_tol:
        lambda_p = np.linalg.eigvalsh((Lp + Lp.T) / 2.0)
        lambda_p[0] = 0.0
        lambda_c = np.full(N, c)
        lambda_c[0] = 0.0
        return SpectralPair(lambda_p, lambda_c, commute)

    Lp_red = in_completion_basis(Lp)[1:, 1:]
    wc, V = np.linalg.eigh((Lc_red + Lc_red.T) / 2.0)
    # a cluster runs from an eigenvalue to the last one within group_tol of it
    wc = wc.tolist()
    starts: dict[int, list[int]] = {}
    start = 0
    while start < N - 1:
        stop = start + 1
        while stop < N - 1 and abs(wc[stop] - wc[start]) <= group_tol:
            stop += 1
        if stop - start > 1:
            starts.setdefault(stop - start, []).append(start)
        start = stop
    P = Lp_red @ V
    if starts:
        _rotate_clusters(V, P, Lp_red, starts)

    paired = []
    for LV, L, tag in ((P, Lp, "physical"), (Lc_red @ V, Lc, "communication")):
        lam = np.einsum("ij,ij->j", V, LV)
        LV -= V * lam
        norm = float(np.linalg.norm(LV))
        if norm > OFFDIAG_RTOL * float(np.linalg.norm(L)):
            raise DegenerateSpectrum(
                f"off-diagonal residual {norm:g} too large "
                f"for the {tag} Laplacian", commute)
        paired.append(np.concatenate(([0.0], lam)))

    return SpectralPair(*paired, commute)


def _rotate_clusters(V: np.ndarray, P: np.ndarray, Lp_red: np.ndarray,
                     starts: dict[int, list[int]]) -> None:
    """Diagonalize ``Lp_red`` inside clusters of columns of ``V``, in place.

    ``P`` is ``Lp_red @ V``, and its cluster columns are rotated with those of
    ``V``, so that it stays that product. ``starts`` maps a cluster size m > 1
    to the first columns of the clusters of that size, and the clusters of one
    size are rotated together: their m x m projections and rotations are
    stacked products and one batched eigensolve. A cluster whose projection
    lies within GROUP_RTOL * ||Lp_red||_F of its mean diagonal keeps its
    columns: ``Lp_red`` is scalar there, and a rotation would be set by
    rounding noise and mix communication eigenvectors that the cluster
    tolerance let differ.
    """
    tol = GROUP_RTOL * float(np.linalg.norm(Lp_red))
    for m, first in starts.items():
        cols = np.add.outer(first, np.arange(m))
        Vg = V[:, cols].transpose(1, 0, 2)
        Pg = P[:, cols].transpose(1, 0, 2)
        proj = Vg.transpose(0, 2, 1) @ Pg
        proj = (proj + proj.transpose(0, 2, 1)) / 2.0
        mean = np.trace(proj, axis1=1, axis2=2) / m
        mixed = np.linalg.norm(proj - mean[:, None, None] * np.eye(m), axis=(1, 2)) > tol
        if mixed.any():
            rot = np.linalg.eigh(proj[mixed])[1]
            V[:, cols[mixed]] = (Vg[mixed] @ rot).transpose(1, 0, 2)
            P[:, cols[mixed]] = (Pg[mixed] @ rot).transpose(1, 0, 2)
