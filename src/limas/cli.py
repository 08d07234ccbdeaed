"""Command line front end: analyze, simulate and oracle subcommands.

``analyze`` prints the report of :func:`limas.analysis.analyze` unchanged,
so the command line and the library always reach the same verdict.
``simulate`` without ``--gain`` runs that same analysis and uses its gain
only when the report certifies it; otherwise it fails with the report's
reason.

Exit codes for ``analyze``: 0 the model is certified consensusable (a gain
was produced and verified), 2 certified not consensusable (the necessary
condition fails), 3 inconclusive, 1 input or validation error, a command
line argparse rejects included. The other subcommands use 0 for success and
1 for errors. Identical inputs and seeds produce byte-identical JSON and CSV
outputs on one numpy/BLAS build at one BLAS thread count; the count can move
last digits (36 of the 123 benchmark cases between one and two OpenBLAS
threads), never a verdict.
"""

from __future__ import annotations

import argparse
import functools
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

# The trajectory CSV is formatted in blocks of this many cells, or of one row
# when a row is longer, so the writer's temporaries (about 430 bytes a cell,
# 3.5 MB a block) do not grow with the table. Each block pays about 80 numpy
# calls and one write; 2^13 and 2^14 were the fastest of 2^11-2^15 on
# N = 64-256 tables, 2^13 with half the temporaries, and the N = 256
# simulate run itself peaks at about 7 MB.
CSV_BLOCK_CELLS = 2**13
# A cell whose scaled value Y lies within this of a rounding tie (fraction 1/2)
# is formatted by Python's '%.17g'. It must exceed the error of the computed
# fraction: 1e17 * 2^-104 for Y (see _scaled) plus 2^-53 for taking the
# fraction, about 5.0e-15 together.
CSV_TIE_MARGIN = 1e-12
# Exponents p of the table 10^p: 16 - X for the decimal exponents X of
# float64 (-324 to 308).
_POW10_MIN, _POW10_MAX = 16 - 308, 16 + 324
_SPLITTER = 2.0**27 + 1.0  # Dekker's split of a double into two 26-bit halves


def _fmt_list(values) -> str:
    return "[" + ", ".join(f"{v:.6g}" for v in values) + "]"


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
            f"(gamma_c {c.gamma_c:.6g}, lhs {c.lhs:.6g} {'<' if c.lhs < c.rhs else '>='} "
            f"rhs {c.rhs:.6g})")
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
            f"max radius {report.certified_radius:.6g}"
            + (f"  ({report.certificate_detail})" if report.certificate_detail else ""))
    lines.append(f"verdict: {report.verdict.upper()}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    report = analysis.analyze(load_model(args.model))
    if args.format == "json" or args.out:
        payload = json.dumps(report.to_dict(), indent=2)
        if args.out:
            Path(args.out).write_text(payload + "\n", encoding="utf-8")
    print(payload if args.format == "json" else render_text(report))
    return _VERDICT_EXIT[report.verdict]


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """10^p = (H + L) * 2^E for p from _POW10_MIN to _POW10_MAX, built on first use.

    H in [1, 2) is 10^p / 2^E rounded to a double and L the rounded
    remainder, so H + L is within a relative 2^-106 of 10^p / 2^E. Returns
    (Hh, Hl, H, L, E) with H = Hh + Hl split into halves for Dekker's product.
    """
    H, L, E = [], [], []
    for p in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        e = num.bit_length() - den.bit_length()
        e -= (num << max(-e, 0)) < (den << max(e, 0))
        num, den = num << max(-e, 0), den << max(e, 0)  # num / den in [1, 2)
        h = num / den  # Python rounds an integer quotient correctly
        H.append(h)
        L.append((num * 2**52 - int(h * 2**52) * den) / (den * 2**52))
        E.append(e)
    H = np.array(H)
    t = H * _SPLITTER
    Hh = t - (t - H)
    return Hh, H - Hh, H, np.array(L), np.array(E)


@functools.cache
def _layout_table() -> tuple[np.ndarray, ...]:
    """Byte tables of the CSV writer, built on first use.

    A cell's 28-byte alphabet, read as seven little-endian uint32 words, holds
    its digits 2-17 in bytes 0-15, then digit 1, '-', '.', '0' (16-19), 'e',
    '+', '-' and the exponent's three digits (20-25), its separator (26) and a
    NUL byte (27). For each key (layout, s, negative) the pattern lists the
    alphabet bytes of the cell's text and separator, padded with NUL, as
    np.intp offsets, so that the cell's row offset adds to them in place.
    Layouts 0-20 are the fixed form of exponent X = layout - 4, and 21-24 the
    exponent form with a negative exponent (even) or three exponent digits
    (23 and 24); s is the count of significant digits.
    """
    def words(*columns) -> np.ndarray:  # rows of four bytes as uint32 words
        return np.column_stack(np.broadcast_arrays(*columns)).astype(np.uint8).view("<u4").ravel()

    k = np.arange(10_000)
    groups = words(*(k // 10**d % 10 + ord("0") for d in (3, 2, 1, 0)))
    trailing = sum(k % 10**d == 0 for d in range(1, 5)).astype(np.uint8)
    k = np.arange(1_000)
    exp_head = words(ord("e"), ord("+"), ord("-"), k // 100 + ord("0"))
    exp_tail = words(k // 10 % 10 + ord("0"), k % 10 + ord("0"), 0, 0)
    head = words(ord("0"), ord("-"), ord("."), ord("0"))[0]

    minus, dot, zero, e, plus, e_minus, sep, nul = 17, 18, 19, 20, 21, 22, 26, 27
    digit = lambda k: 16 if k == 0 else k - 1  # the byte of digit k + 1
    patterns = np.full((25 * 18 * 2, 25), nul, dtype=np.intp)
    for layout in range(25):
        for s in range(1, 18):
            frac = [digit(k) for k in range(1, s)]
            if layout < 4:
                body = [zero, dot] + [zero] * (3 - layout) + [digit(0)] + frac
            elif layout < 21:
                whole = [digit(k) for k in range(layout - 3)]
                rest = [digit(k) for k in range(layout - 3, s)]
                body = whole + ([dot] + rest if rest else [])
            else:
                exponent = [23, 24, 25] if layout > 22 else [24, 25]
                body = ([digit(0)] + ([dot] + frac if frac else [])
                        + [e, e_minus if layout % 2 == 0 else plus] + exponent)
            for negative in (0, 1):
                cells = [minus] * negative + body + [sep]
                patterns[(layout * 18 + s) * 2 + negative, :len(cells)] = cells
    return groups, trailing, head, exp_head, exp_tail, patterns


def _scaled(f: np.ndarray, p: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Y = f * 2^e * 10^p as hi + lo, for f in [1/2, 1) and Y near [1e16, 1e17).

    Dekker's product gives f*H exactly as a + b. The other roundings (of H +
    L, of f*L and of b + f*L) are below 2^-106, 2^-106 and 2^-105 of Y, so
    hi + lo is within a relative 2^-104 of Y, up to terms of order 2^-157. Scaling by 2^(e+E), a power of
    two near 2^55 built from its bits, is exact; hi is then an integer
    wherever Y >= 2^53.
    """
    row = p - _POW10_MIN
    Hh, Hl, H, L, E = (table[row] for table in _pow10_table())
    t = f * _SPLITTER
    fh = t - (t - f)
    fl = f - fh
    a = f * H
    b = (((fh * Hh - a) + fh * Hl + fl * Hh) + fl * Hl) + f * L
    hi = a + b
    lo = b - (hi - a)
    scale = ((e + E + 1023) << 52).view(np.float64)
    return hi * scale, lo * scale


def _divmod(v: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod(v, unit), by numpy's fast division by a scalar."""
    q = v // unit
    return q, v - q * unit


def _format_cells(x: np.ndarray, sep: np.ndarray) -> bytes:
    """The bytes of '%.17g' % v followed by its separator, for each v in x.

    For finite nonzero v, Y = |v| * 10^(16 - X) with X = floor(log10|v|)
    lies in [1e16, 1e17), and %.17g prints the digits of D = round(Y) (ties
    to even) at exponent X. Y is formed as a double-double hi + lo
    (_scaled), X from log10. Where hi lies strictly inside (1e16, 1e17),
    hi + lo lies within [1e16 + 1, 1e17 - 8] (the ulp of hi is 2 to 16 and
    |lo| at most half of it) and Y within 5e-15 of it, so X is the true
    exponent and D < 1e17. Every other cell is formatted by Python's
    '%.17g': one whose hi falls outside, one whose computed fraction of Y
    lies within CSV_TIE_MARGIN of 1/2, and zero, infinity and NaN. So every
    cell is exact, not close.
    """
    n = x.size
    fast = np.isfinite(x) & (x != 0.0)
    mag = np.abs(np.where(fast, x, 1.0))
    f, e = np.frexp(mag)
    X = np.floor(np.log10(mag)).astype(np.int64)
    hi, lo = _scaled(f, 16 - X, e)
    whole = np.floor(lo)
    frac = lo - whole
    fast &= (hi > 1e16) & (hi < 1e17) & (np.abs(frac - 0.5) > CSV_TIE_MARGIN)
    D = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)

    groups, trailing, head, exp_head, exp_tail, patterns = _layout_table()
    lead, rest = _divmod(D, 10**16)
    g1, rest = _divmod(rest, 10**12)
    g2, rest = _divmod(rest, 10**8)
    g3, g4 = _divmod(rest, 10**4)
    s = 17 - trailing[g4]
    short = np.flatnonzero(g4 == 0)
    if short.size:
        a, b, c = g1[short], g2[short], g3[short]
        s[short] = np.where(c != 0, 13 - trailing[c], np.where(
            b != 0, 9 - trailing[b], np.where(a != 0, 5 - trailing[a], 1)))
    expo = np.abs(X)
    alphabet = np.empty((n, 7), dtype="<u4")
    for word, group in enumerate((g1, g2, g3, g4)):
        alphabet[:, word] = groups[group]
    alphabet[:, 4] = head + lead.astype("<u4")
    alphabet[:, 5] = exp_head[expo]
    alphabet[:, 6] = exp_tail[expo] | (sep.astype("<u4") << 16)
    layout = np.where((X >= -4) & (X < 17), X + 4, 21 + (X < 0) + 2 * (expo >= 100))
    index = np.take(patterns, (layout * 18 + s) * 2 + (x < 0), axis=0)
    index += np.arange(0, 28 * n, 28)[:, None]
    out = np.take(alphabet.view(np.uint8).ravel(), index)
    for k in np.flatnonzero(~fast).tolist():
        cell = ("%.17g" % x[k]).encode("ascii") + bytes((sep[k],))
        out[k] = 0
        out[k, :len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    return out.tobytes().translate(None, b"\0")


def _write_csv(path, header: str, table: np.ndarray) -> None:
    """Write header and the rows of table, each cell exactly as '%.17g' % v."""
    rows = max(1, CSV_BLOCK_CELLS // table.shape[1])
    sep = np.full(table.shape[1], ord(","), dtype=np.uint8)
    sep[-1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for start in range(0, table.shape[0], rows):
            block = table[start:start + rows]
            fh.write(_format_cells(block.ravel(), np.tile(sep, len(block))))


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    if args.gain:
        K = gain_from_file(args.gain, model.n)
    else:
        report = analysis.analyze(model)
        if not report.consensusable_certified:
            if report.verdict == "not-consensusable":
                reason = "a necessary condition fails, so no gain reaches consensus"
            elif report.gain is not None:
                reason = f"{report.certificate_method} radius {report.certified_radius:g}"
                if report.certificate_detail:
                    reason += f", {report.certificate_detail}"
            else:
                reason = (report.synthesis_error or report.sufficient_error
                          or "sufficient condition does not hold")
            raise SynthesisFailed(f"automatic gain synthesis failed: {reason}")
        K = as_matrix(report.gain, name="K")

    traj = simulate(model, K, initial_state(model, args.seed), args.steps)
    metrics = convergence_metrics(traj)

    header = ",".join(["step"]
                      + [f"delta_norm_{i + 1}" for i in range(model.N)]
                      + [f"xbar_{j + 1}" for j in range(model.n)])
    # %.17g prints the integral step column as %d does
    _write_csv(args.out_csv, header,
               np.column_stack((np.arange(traj.step_count + 1), traj.delta_norms, traj.xbar)))

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
        result = oracle.scalar_grid_search(model, lo=args.lo, hi=args.hi,
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


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit with EXIT_ERROR, not 2, which
    analyze gives to a refutation; its subparsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of main, built on its first call; parsing leaves it unchanged."""
    parser = _Parser(
        prog="limas",
        description="Consensusability analysis, gain synthesis and simulation "
                    "for interconnected multi-agent systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the consensusability analysis")
    p.add_argument("model", help="path to a JSON model file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="also write the JSON report to this path")

    p = sub.add_parser("simulate", help="simulate the closed loop and write CSV")
    p.add_argument("model", help="path to a JSON model file")
    p.add_argument("--gain", help="JSON gain file {\"K\": [...]}; omit to synthesize")
    p.add_argument("--seed", type=int, default=42, help="seed for the initial state")
    p.add_argument("--steps", type=int, default=300, help="number of updates")
    p.add_argument("--out-csv", required=True, help="trajectory CSV output path")

    p = sub.add_parser("oracle", help="brute-force gain search / verification")
    p.add_argument("model", help="path to a JSON model file")
    p.add_argument("--gain", help="verify this JSON gain file instead of searching")
    p.add_argument("--lo", type=float, default=oracle.GRID_LO)
    p.add_argument("--hi", type=float, default=oracle.GRID_HI)
    p.add_argument("--count", type=int, default=oracle.GRID_COUNT)
    p.add_argument("--out", help="also write the JSON result to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the handler is looked up by name at each call, so a rebound
    # cmd_* attribute of this module is the one that runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (LimasError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
