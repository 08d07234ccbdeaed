"""Weighted undirected graphs, their Laplacians and joint spectra.

:class:`WeightedGraph` is the one place that checks the edge rules. The
central object downstream is the :class:`SpectralPair`: one orthogonal basis
diagonalizing the physical and the communication Laplacian at once, its two
eigenvalue lists paired positionally. It exists only for commuting Laplacians.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DegenerateSpectrum, NotCommuting, ShapeMismatch
from .linalg import as_square, ones_completion

# Commutator gate: ||Lp Lc - Lc Lp||_F <= COMMUTE_RTOL * ||Lp||_F ||Lc||_F.
COMMUTE_RTOL = 1e-9
# Eigenvalue grouping tolerance for joint diagonalization, relative to ||Lc||_F.
GROUP_RTOL = 1e-8
# Joint-diagonalization check: ||phi' L phi - diag||_F <= OFFDIAG_RTOL * ||L||_F.
OFFDIAG_RTOL = 1e-8
# Node pairs are keyed as i*N + j in int64, which stays exact up to this N.
MAX_NODES = 2**31


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with strictly positive edge weights.

    The one owner of the edge rules: ends are integers in 0..N-1, no self-loop,
    no unordered pair twice, weight finite and > 0. A ValueError names the first
    bad edge by its list position; an integer beyond the float range counts as
    +-inf. Edges are stored once, in input order, as the read-only arrays
    ``i``, ``j`` (int64, i < j) and ``w`` (float64).
    """

    node_count: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int, float]]):
        if isinstance(node_count, bool) or not isinstance(node_count, (int, np.integer)):
            raise ValueError(f"node count must be an integer, got {node_count!r}")
        node_count = int(node_count)
        if node_count < 2:
            raise ValueError(f"graph needs at least 2 nodes, got {node_count}")
        if node_count > MAX_NODES:
            raise ValueError(f"graph has more than {MAX_NODES} nodes")
        edges = list(edges)
        try:
            triples = set(map(len, edges)) <= {3}
        except TypeError:
            triples = False
        if not triples:
            raise ValueError("edges must be (i, j, weight) triples")
        try:
            # one pass in C over the entries, with no array of Python objects
            rows = np.fromiter(chain.from_iterable(edges), float, 3 * len(edges))
        except OverflowError:
            rows = np.array([_float_or_inf(x) for e in edges for x in e])
        rows = rows.reshape(len(edges), 3)
        ends, w = rows[:, :2], rows[:, 2].copy()
        valid = ((ends >= 0) & (ends < node_count) & (ends == np.floor(ends))).all(axis=1)
        lo, hi = np.sort(np.where(valid[:, None], ends, 0), axis=1).astype(np.int64).T
        first = np.zeros(len(rows), dtype=bool)
        first[np.unique(lo * node_count + hi, return_index=True)[1]] = True
        rules = ((~valid, f"has an end that is not an integer in 0..{node_count - 1}"),
                 (valid & (lo == hi), "is a self-loop"),
                 (~((w > 0.0) & np.isfinite(w)), "weight must be finite and positive"),
                 (~first, "duplicates an earlier edge"))
        bad = np.logical_or.reduce([mask for mask, _ in rules])
        if bad.any():
            k = int(np.argmax(bad))
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
    """Frobenius norm of the commutator Lp Lc - Lc Lp against the COMMUTE_RTOL gate."""
    Lp = as_square(Lp, name="Lp")
    Lc = as_square(Lc, name="Lc")
    if Lp.shape != Lc.shape:
        raise ShapeMismatch(f"Laplacians differ in size: {Lp.shape} vs {Lc.shape}")
    residual = float(np.linalg.norm(Lp @ Lc - Lc @ Lp))
    gate = COMMUTE_RTOL * float(np.linalg.norm(Lp)) * float(np.linalg.norm(Lc))
    return CommuteCheck(residual <= gate, residual)


@dataclass(frozen=True)
class SpectralPair:
    """Joint eigenstructure of two commuting Laplacians.

    ``phi`` is orthogonal with first column 1/sqrt(N); column i is a shared
    eigenvector with eigenvalue ``lambda_p[i]`` for the physical Laplacian
    and ``lambda_c[i]`` for the communication Laplacian. Beyond the leading
    zeros the lists carry no magnitude ordering.
    """

    phi: np.ndarray
    lambda_p: np.ndarray
    lambda_c: np.ndarray


def simultaneous_diagonalize(Lp, Lc) -> SpectralPair:
    """Jointly diagonalize two commuting Laplacians.

    The all-ones direction is deflated first (it is a shared kernel vector
    of any Laplacian), then the communication Laplacian is eigendecomposed
    on the complement, its eigenvalues grouped into near-degenerate
    clusters (within GROUP_RTOL * ||Lc||_F), and the physical Laplacian is
    diagonalized inside each cluster. Repeated communication eigenvalues
    (complete graphs produce them) are therefore handled exactly where naive
    pairing would fail.
    """
    Lp = as_square(Lp, name="Lp")
    Lc = as_square(Lc, name="Lc")
    check = commute_check(Lp, Lc)
    if not check.ok:
        raise NotCommuting(f"commutator residual {check.residual:g} exceeds tolerance")
    return _diagonalize_commuting(Lp, Lc)


def _diagonalize_commuting(Lp, Lc) -> SpectralPair:
    """:func:`simultaneous_diagonalize` for square Laplacians already known to commute."""
    N = Lp.shape[0]
    basis = ones_completion(N)
    W = basis[:, 1:]
    Lc_red = W.T @ Lc @ W
    Lp_red = W.T @ Lp @ W

    wc, Vc = np.linalg.eigh((Lc_red + Lc_red.T) / 2.0)
    group_tol = GROUP_RTOL * float(np.linalg.norm(Lc))

    columns = []
    start = 0
    while start < N - 1:
        stop = start
        while stop + 1 < N - 1 and abs(wc[stop + 1] - wc[start]) <= group_tol:
            stop += 1
        Vg = Vc[:, start:stop + 1]
        proj = Vg.T @ Lp_red @ Vg
        _, rot = np.linalg.eigh((proj + proj.T) / 2.0)
        columns.append(W @ (Vg @ rot))
        start = stop + 1

    phi = np.column_stack([basis[:, :1]] + columns)
    paired = []
    for L, tag in ((Lp, "physical"), (Lc, "communication")):
        L_phi = L @ phi
        lam = np.einsum("ij,ij->j", phi, L_phi)
        lam[0] = 0.0
        off = phi.T @ L_phi - np.diag(lam)
        if float(np.linalg.norm(off)) > OFFDIAG_RTOL * float(np.linalg.norm(L)):
            raise DegenerateSpectrum(
                f"off-diagonal residual {np.linalg.norm(off):g} too large "
                f"for the {tag} Laplacian")
        paired.append(lam)

    return SpectralPair(phi, *paired)
