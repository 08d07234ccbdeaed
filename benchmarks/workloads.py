"""Seeded inputs for the limas benchmark, built with numpy alone.

Nothing here imports limas. The critical margin, the bisection onto
``sigma_c + d`` and the stabilizing gains are computed from closed-form
graph spectra and this module's own eigenvalue calls, so the inputs do not
depend on the code under test and two commits given the same seed receive
byte-identical files.

Each workload is a list of :class:`Case` objects: one CLI call with its
arguments, how often it appears in every round of the closed loop, and
what the output checks need to know about it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALPHA = 0.3
SIM_STEPS = 300
SHOWCASE_A = np.array([[1.0, 2.0], [0.0, 1.5]])
# Two unstable poles plus stable ones, so n = 2, 3, 4 share one sigma_c.
UNSTABLE_POLES = (1.2, 1.1)
STABLE_POLES = (0.5, -0.3)


@dataclass(frozen=True)
class Case:
    """One CLI call of a workload.

    ``kind`` is "analyze", "simulate", "verify" or "grid". The call appears
    ``weight`` times in every round. ``expect`` holds what the output
    checks compare against.
    """

    label: str
    kind: str
    argv: tuple[str, ...]
    weight: int
    model: str
    expect: dict = field(default_factory=dict)


def _edges(kind: str, N: int, weight: float) -> list[dict]:
    if kind == "cycle":
        pairs = [(i, (i + 1) % N) for i in range(N)]
    elif kind == "path":
        pairs = [(i, i + 1) for i in range(N - 1)]
    elif kind == "complete":
        pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    elif kind == "star":
        pairs = [(0, j) for j in range(1, N)]
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    return [{"i": i + 1, "j": j + 1, "weight": weight} for i, j in pairs]


def _model(A, B, N: int, gp: tuple[str, float], gc: tuple[str, float]) -> dict:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return {
        "schema_version": "1",
        "n": A.shape[0],
        "N": N,
        "A": [float(v) for v in A.ravel()],
        "B": [float(v) for v in np.ravel(B)],
        "alpha": ALPHA,
        "physical_edges": _edges(gp[0], N, gp[1]),
        "communication_edges": _edges(gc[0], N, gc[1]),
    }


def _companion(poles) -> np.ndarray:
    """Companion-form state matrix with the given poles and input e_n."""
    coeffs = np.poly(poles)
    n = len(poles)
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -coeffs[:0:-1]
    return A


def _unit_input(n: int) -> np.ndarray:
    B = np.zeros(n)
    B[-1] = 1.0
    return B


def _cycle_modes(N: int, weight: float) -> np.ndarray:
    """Non-zero Laplacian eigenvalues of a uniformly weighted N-cycle."""
    k = np.arange(1, N)
    return 2.0 * weight * (1.0 - np.cos(2.0 * np.pi * k / N))


def critical_margin_gap(w_p: float, poles, N: int) -> float:
    """Worst-mode Riccati margin minus sigma_c for a cycle/complete model.

    With a complete communication graph every non-consensus mode has the
    same communication eigenvalue, so the midpoint gain scale gives mode i
    the margin (2 a_i m - m^2) / a_max^2 with a_i = 1 - alpha * lambda_p_i
    and m the midpoint of the a_i range. sigma_c is that of a_max * A.
    """
    a = 1.0 - ALPHA * _cycle_modes(N, w_p)
    a_max = float(np.abs(a).max())
    m = (float(a.min()) + float(a.max())) / 2.0
    sigma = float(((2.0 * a * m - m * m) / a_max ** 2).min())
    mags = a_max * np.abs(np.asarray(poles, dtype=float))
    sigma_c = 0.0 if mags.max() < 1.0 else 1.0 - 1.0 / float(np.prod(mags[mags >= 1.0])) ** 2
    return sigma - sigma_c


def physical_weight_at_gap(d: float, poles, N: int) -> float:
    """Bisect the cycle weight so the margin sits at sigma_c + d (from above)."""
    lo, hi = 0.0, 1.0 / 64
    while critical_margin_gap(hi, poles, N) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if critical_margin_gap(mid, poles, N) > d:
            lo = mid
        else:
            hi = mid
    return lo


def place_poles(A: np.ndarray, B: np.ndarray, poles) -> np.ndarray:
    """Ackermann gain K (row) with eig(A + B K) = poles for single-input B."""
    n = A.shape[0]
    ctrb = np.column_stack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
    coeffs = np.poly(poles)
    phi = sum(c * np.linalg.matrix_power(A, n - k) for k, c in enumerate(coeffs))
    return -np.linalg.solve(ctrb.T, np.eye(n)[-1]) @ phi


class _Writer:
    """Writes input files and hashes them in write order."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.digest = hashlib.sha256()
        self.count = 0

    def json(self, name: str, data: dict) -> str:
        raw = (json.dumps(data) + "\n").encode("utf-8")
        self.digest.update(name.encode("utf-8") + b"\0" + raw)
        self.count += 1
        path = self.workdir / name
        path.write_bytes(raw)
        return str(path)


def _jitter(rng: np.random.Generator, value: float, rel: float = 0.05) -> float:
    return float(value * rng.uniform(1.0 - rel, 1.0 + rel))


def analyze_ladder(rng: np.random.Generator, out: _Writer) -> list[Case]:
    """`limas analyze --format json` over graph pairs, N in {64, 256}, n in {1, 2, 4}.

    Small models appear three times per round and N = 256 ones once, so the
    median falls among the small calls and the 90th percentile among the
    N = 256 complete-graph files. The extra N = 8 path+star model shows the
    known split between the CLI and library verdicts, which needs N < 21 (a
    star with a = 1.1 cannot be stabilized from there on).
    """
    agents = {
        1: (np.array([[_jitter(rng, 1.1, 0.01)]]), np.ones(1)),
        2: (SHOWCASE_A, _unit_input(2)),
        4: (_companion(UNSTABLE_POLES + STABLE_POLES), _unit_input(4)),
    }
    w_p, w_c = _jitter(rng, 0.1), _jitter(rng, 1.0)
    ladder = [(gp, gc, N, n)
              for gp, gc in (("cycle", "complete"), ("path", "complete"), ("cycle", "cycle"))
              for N in (64, 256) for n in (1, 2, 4)]
    ladder += [("path", "star", N, 1) for N in (8, 64, 256)]
    cases = []
    for gp, gc, N, n in ladder:
        A, B = agents[n]
        name = f"ladder-{gp}-{gc}-N{N}-n{n}.json"
        path = out.json(name, _model(A, B, N, (gp, w_p), (gc, w_c)))
        cases.append(Case(f"analyze {gp}+{gc} N={N} n={n}", "analyze",
                          ("analyze", path, "--format", "json"),
                          1 if N == 256 else 3, path))
    return cases


# Calls per round of each near-critical model, by distance d above sigma_c.
# Over the three agent sizes a round holds 135 calls: the median falls among
# the d = 1e-1 calls and the 90th percentile on the middle one of the three
# d = 1e-2 models. The d = 1e-3 and 1e-4 calls take about three quarters of
# a round and weigh on ops_per_s.
NEAR_CRITICAL_MIX = {1e-1: 38, 1e-2: 5, 1e-3: 1, 1e-4: 1}


def riccati_near_critical(rng: np.random.Generator, out: _Writer) -> list[Case]:
    """`limas analyze` on N = 8 cycle/complete models at sigma_c + d.

    The sufficient condition holds exactly when the worst-mode margin
    exceeds sigma_c, so every model is consensusable by construction and
    any other verdict is a failed operation.
    """
    N = 8
    # Iterations near sigma_c are sensitive to the poles: +-0.1% keeps the
    # work of every seed within about 1% while the files still differ.
    unstable = tuple(_jitter(rng, p, 0.001) for p in UNSTABLE_POLES)
    w_c = _jitter(rng, 1.0)
    cases = []
    for n in (2, 3, 4):
        poles = unstable + STABLE_POLES[: n - 2]
        A, B = _companion(poles), _unit_input(n)
        for d, weight in NEAR_CRITICAL_MIX.items():
            w_p = physical_weight_at_gap(d, poles, N)
            name = f"riccati-n{n}-d{d:g}.json"
            path = out.json(name, _model(A, B, N, ("cycle", w_p), ("complete", w_c)))
            cases.append(Case(f"analyze near-critical n={n} d={d:g}", "analyze",
                              ("analyze", path, "--format", "json"), weight, path,
                              {"consensusable": True}))
    return cases


def verify_simulate(rng: np.random.Generator, out: _Writer) -> list[Case]:
    """`limas simulate` and `limas oracle --gain` on cycle/complete n = 2 models,
    plus `limas oracle` grid mode on scalar models.

    Gains are placed by Ackermann's formula and scaled by 1 / lambda_c, then
    checked mode by mode with numpy's eigvals. The grid models' exact
    stabilizing interval follows from the closed-form cycle spectrum.
    """
    A, B = SHOWCASE_A, _unit_input(2)
    w_p, w_c = _jitter(rng, 0.1), _jitter(rng, 1.0)
    K0 = place_poles(A, B, [_jitter(rng, 0.1), _jitter(rng, 0.2)])
    cases = []
    for N, weight in ((64, 3), (128, 3), (256, 1)):
        lam_c = N * w_c
        K = K0 / lam_c
        modes = (1.0 - ALPHA * _cycle_modes(N, w_p))[:, None, None] * A \
            + lam_c * np.outer(B, K)[None, :, :]
        radius = float(np.abs(np.linalg.eigvals(modes)).max())
        if radius >= 1.0:
            raise RuntimeError(f"generated gain for N={N} is not stabilizing ({radius})")
        model = out.json(f"verify-N{N}.json", _model(A, B, N, ("cycle", w_p), ("complete", w_c)))
        gain = out.json(f"verify-N{N}-gain.json", {"K": [float(v) for v in K]})
        csv = str(out.workdir / f"simulate-N{N}.csv")
        sim_seed = int(rng.integers(0, 2 ** 31))
        cases.append(Case(f"simulate N={N}", "simulate",
                          ("simulate", model, "--gain", gain, "--steps", str(SIM_STEPS),
                           "--seed", str(sim_seed), "--out-csv", csv),
                          weight, model, {"csv": csv, "N": N, "n": 2, "steps": SIM_STEPS}))
        cases.append(Case(f"oracle verify N={N}", "verify", ("oracle", model, "--gain", gain),
                          weight, model, {"K": [float(v) for v in K]}))
    a = _jitter(rng, 1.1, 0.01)
    for N in (8, 16):
        lam_p = ALPHA * a * _cycle_modes(N, w_p)
        lam_c = N * w_c
        interval = ((-1.0 - a + float(lam_p.max())) / lam_c,
                    (1.0 - a + float(lam_p.min())) / lam_c)
        model = out.json(f"grid-N{N}.json", _model([[a]], [1.0], N, ("cycle", w_p), ("complete", w_c)))
        cases.append(Case(f"oracle grid N={N}", "grid", ("oracle", model), 1, model,
                          {"interval": interval}))
    return cases


WORKLOADS = {
    "analyze-ladder": analyze_ladder,
    "riccati-near-critical": riccati_near_critical,
    "verify-simulate": verify_simulate,
}

# Typical wall time of one round at the seed commit on a 2-vCPU Xeon guest.
# The harness turns --seconds into a round count with these fixed figures,
# so every commit makes the same calls for a given --seconds.
ROUND_SECONDS = {
    "analyze-ladder": 4.3,
    "riccati-near-critical": 9.5,
    "verify-simulate": 3.2,
}


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Case], str, int]:
    """Write the inputs of one workload; return its cases, input hash and file count."""
    out = _Writer(workdir)
    cases = WORKLOADS[workload](np.random.default_rng(seed), out)
    return cases, out.digest.hexdigest(), out.count
