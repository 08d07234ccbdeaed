"""Command line front end: analyze, simulate and oracle subcommands.

``analyze`` prints the report of :func:`limas.analysis.analyze` unchanged,
so the command line and the library always reach the same verdict.
``simulate`` without ``--gain`` runs that same analysis and uses its gain
only when the report certifies it; otherwise it fails with the report's
reason.

Exit codes for ``analyze``: 0 the model is certified consensusable (a gain
was produced and verified), 2 certified not consensusable (the necessary
condition fails), 3 inconclusive, 1 input or validation error. The other
subcommands use 0 for success and 1 for errors. Identical inputs and seeds
produce byte-identical JSON and CSV outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, oracle
from .errors import LimasError, SynthesisFailed
from .linalg import as_matrix
from .model_io import gain_from_file, load_model
from .simulator import (
    SETTLING_THRESHOLD,
    convergence_metrics,
    initial_state,
    simulate,
)

EXIT_CONSENSUSABLE = 0
EXIT_ERROR = 1
EXIT_NOT_CONSENSUSABLE = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {
    "consensusable": EXIT_CONSENSUSABLE,
    "not-consensusable": EXIT_NOT_CONSENSUSABLE,
    "inconclusive": EXIT_INCONCLUSIVE,
}


def _fmt_list(values, digits: int = 6) -> str:
    return "[" + ", ".join(f"{v:.{digits}g}" for v in values) + "]"


def render_text(report: analysis.AnalysisReport) -> str:
    """Plain-text rendering of an analysis report."""
    lines = [
        f"model: N = {report.N} agents, state dimension n = {report.n}",
        f"lambda_p (sorted): {_fmt_list(report.lambda_p)}",
        f"lambda_c (sorted): {_fmt_list(report.lambda_c)}",
    ]
    for label, chk in (
        ("commuting Laplacians   ", report.assumption_commuting),
        ("modal controllability  ", report.assumption_controllability),
        ("proportional coupling  ", report.assumption_coupling),
    ):
        status = "pass" if chk.holds else "FAIL"
        extra = f"  ({chk.detail})" if chk.detail else ""
        lines.append(f"assumption {label}[{status}]  residual {chk.residual:.3g}{extra}")
    if report.alpha is not None:
        lines.append(f"coupling ratio alpha: {report.alpha:.6g}")

    if report.sufficient is not None:
        s = report.sufficient
        lines.append(
            f"sufficient condition: {'holds' if s.holds else 'does not hold'} "
            f"(lhs {s.lhs:.6g} vs rhs {s.rhs:.6g}, sigma_c {s.sigma_c:.6g}, "
            f"k* {s.k_star:.6g})")
    else:
        lines.append(f"sufficient condition: unavailable ({report.sufficient_error})")
    if report.necessary is not None:
        c = report.necessary
        lines.append(
            f"necessary condition: {'holds' if c.holds else 'FAILS'} "
            f"(gamma_c {c.gamma_c:.6g}, lhs {c.lhs:.6g} < rhs {c.rhs:.6g})")
    else:
        lines.append(f"necessary condition: unavailable ({report.necessary_error})")
    if report.scalar is not None:
        sc = report.scalar
        lines.append(
            f"scalar conditions: C1 {sc.c1}, C2 {sc.c2}, "
            f"K+ ({sc.k_plus[0]:.6g}, {sc.k_plus[1]:.6g}), "
            f"K- ({sc.k_minus[0]:.6g}, {sc.k_minus[1]:.6g}), "
            f"necessary {'holds' if sc.necessary else 'FAILS'}")

    if report.gain is not None:
        lines.append(f"gain K: {_fmt_list(report.gain)}  (source: {report.gain_source})")
    elif report.synthesis_error:
        lines.append(f"gain: none ({report.synthesis_error})")
    if report.modal_radii is not None:
        lines.append(
            f"modal radii: {_fmt_list(report.modal_radii)}  "
            f"(max {max(report.modal_radii):.6g})")
    if report.certificate_method is not None:
        lines.append(
            f"certificate: {report.certificate_method}, "
            f"max radius {report.certified_radius:.6g}")
    lines.append(f"verdict: {report.verdict.upper()}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    report = analysis.analyze(load_model(args.model))
    payload = json.dumps(report.to_dict(), indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    print(payload if args.format == "json" else render_text(report))
    return _VERDICT_EXIT[report.verdict]


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    if args.gain:
        K = gain_from_file(args.gain, model.n)
    else:
        report = analysis.analyze(model)
        if not report.consensusable_certified:
            reason = (report.synthesis_error or report.sufficient_error
                      or "sufficient condition does not hold")
            if report.gain is not None:
                reason = f"{report.certificate_method} radius {report.certified_radius:g}"
            raise SynthesisFailed(f"automatic gain synthesis failed: {reason}")
        K = as_matrix(report.gain, name="K")

    traj = simulate(model, K, initial_state(model, args.seed), args.steps)
    metrics = convergence_metrics(traj)

    header = ",".join(["step"]
                      + [f"delta_norm_{i + 1}" for i in range(model.N)]
                      + [f"xbar_{j + 1}" for j in range(model.n)])
    table = np.column_stack((np.arange(traj.step_count + 1), traj.delta_norms, traj.xbar))
    # savetxt is handed an open file: given a path ending in .gz it would gzip
    with open(args.out_csv, "w", encoding="utf-8") as fh:
        np.savetxt(fh, table, fmt=["%d"] + ["%.17g"] * (model.N + model.n),
                   delimiter=",", header=header, comments="")

    settled = ("never" if metrics.settling_step is None
               else f"step {metrics.settling_step}")
    print(f"gain K: {_fmt_list(K.ravel())}")
    print(f"seed {args.seed}, {args.steps} steps -> {args.out_csv}")
    print(f"decay rate {metrics.rate:.6g}, settled below "
          f"{SETTLING_THRESHOLD:g}: {settled}"
          + (" [no decay]" if metrics.no_decay else ""))
    return 0


def cmd_oracle(args) -> int:
    model = load_model(args.model)
    if args.gain:
        K = gain_from_file(args.gain, model.n)
        res = oracle.verify_gain(model, K)
        out = {
            "mode": "verify",
            "K": [float(v) for v in K.ravel()],
            "stable": res.stable,
            "max_radius": res.max_radius,
        }
    else:
        result = oracle.scalar_model_grid_search(model, lo=args.lo, hi=args.hi,
                                                 count=args.count)
        out = {
            "mode": "grid",
            "grid": {"lo": result.lo, "hi": result.hi, "count": result.count},
            "stabilizing_count": int(result.stabilizing_k.size),
            "stabilizing_intervals": [list(iv) for iv in result.stabilizing_intervals()],
            "best_k": result.best_k,
            "best_radius": result.best_radius,
        }
    payload = json.dumps(out, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    print(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limas",
        description="Consensusability analysis, gain synthesis and simulation "
                    "for interconnected multi-agent systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the consensusability analysis")
    p.add_argument("model", help="path to a JSON model file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="also write the JSON report to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="simulate the closed loop and write CSV")
    p.add_argument("model", help="path to a JSON model file")
    p.add_argument("--gain", help="JSON gain file {\"K\": [...]}; omit to synthesize")
    p.add_argument("--seed", type=int, default=42, help="seed for the initial state")
    p.add_argument("--steps", type=int, default=300, help="number of updates")
    p.add_argument("--out-csv", required=True, help="trajectory CSV output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="brute-force gain search / verification")
    p.add_argument("model", help="path to a JSON model file")
    p.add_argument("--gain", help="verify this JSON gain file instead of searching")
    p.add_argument("--lo", type=float, default=oracle.GRID_LO)
    p.add_argument("--hi", type=float, default=oracle.GRID_HI)
    p.add_argument("--count", type=int, default=oracle.GRID_COUNT)
    p.add_argument("--out", help="also write the JSON result to this path")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LimasError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
