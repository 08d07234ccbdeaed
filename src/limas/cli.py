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
# when a row is longer, so the writer's temporaries (about 450 bytes a cell,
# under 1 MB a block) do not grow with the table.
CSV_BLOCK_CELLS = 2**11
# A cell whose scaled value Y lies within this of a rounding tie (fraction 1/2)
# is formatted by Python's '%.17g'. It must exceed the error of the computed
# fraction: 1e17 * 2^-104 for Y (see _scaled) plus 2^-53 for taking the
# fraction, about 5.0e-15 together.
CSV_TIE_MARGIN = 1e-12
# Exponents p of the table 10^p: 16 - X for the decimal exponents X of
# float64 (-324 to 308), and one beyond at each end for the correction of X.
_POW10_MIN, _POW10_MAX = 16 - 309, 16 + 325
_SPLITTER = 2.0**27 + 1.0  # Dekker's split of a double into two 26-bit halves


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
        refused = report.certified_radius < 1.0 and not report.consensusable_certified
        lines.append(
            f"certificate: {report.certificate_method}, "
            f"max radius {report.certified_radius:.6g}"
            + (f"  ({report.synthesis_error})" if refused else ""))
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
    alphabet bytes of the cell's text and separator, padded with NUL.
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
    patterns = np.full((25 * 18 * 2, 25), nul, dtype=np.uint8)
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


def _less(hi: np.ndarray, lo: np.ndarray, bound: float) -> np.ndarray:
    """Where hi + lo < bound, for |lo| at most half an ulp of hi, without rounding."""
    return (hi < bound) | ((hi == bound) & (lo < 0))


def _format_cells(x: np.ndarray, sep: np.ndarray) -> bytes:
    """The bytes of '%.17g' % v followed by its separator, for each v in x.

    For finite nonzero v, Y = |v| * 10^(16 - X) with X = floor(log10|v|)
    lies in [1e16, 1e17), and %.17g prints the digits of D = round(Y) (ties
    to even) at exponent X, or 1e16 at X + 1 when D = 1e17. Y is formed as a
    double-double (_scaled); X comes from log10 and is corrected by one where
    Y falls outside. Where the computed fraction of Y is within
    CSV_TIE_MARGIN of 1/2, where a correction is not enough, and for zero,
    infinity and NaN, the cell is formatted by Python's '%.17g'. So every
    cell is exact, not close.
    """
    n = x.size
    fast = np.isfinite(x) & (x != 0.0)
    mag = np.abs(np.where(fast, x, 1.0))
    f, e = np.frexp(mag)
    X = np.floor(np.log10(mag)).astype(np.int64)
    hi, lo = _scaled(f, 16 - X, e)
    # A Y within its error of 1e16 or 1e17 may land on either side, and
    # either side prints the same: D then rounds to the power of ten.
    high = ~_less(hi, lo, 1e17)
    moved = np.flatnonzero(_less(hi, lo, 1e16) | high)
    if moved.size:
        X[moved] += np.where(high[moved], 1, -1)
        hi[moved], lo[moved] = _scaled(f[moved], 16 - X[moved], e[moved])
        hi_m, lo_m = hi[moved], lo[moved]
        stuck = moved[_less(hi_m, lo_m, 1e16) | ~_less(hi_m, lo_m, 1e17)]
        fast[stuck] = False
        hi[stuck], lo[stuck] = 1e16, 0.0
    whole = np.floor(lo)
    frac = lo - whole
    fast &= np.abs(frac - 0.5) > CSV_TIE_MARGIN
    D = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = D == 10**17
    D[carry] = 10**16
    X += carry

    groups, trailing, head, exp_head, exp_tail, patterns = _layout_table()
    lead, rest = np.divmod(D, 10**16)
    g1, rest = np.divmod(rest, 10**12)
    g2, rest = np.divmod(rest, 10**8)
    g3, g4 = np.divmod(rest, 10**4)
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
    index = patterns[(layout * 18 + s) * 2 + (x < 0)] + np.arange(0, 28 * n, 28)[:, None]
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
                if report.certified_radius < 1.0:
                    reason += f", {report.synthesis_error}"
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built on its first call; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
