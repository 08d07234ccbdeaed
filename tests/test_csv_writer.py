"""The simulate CSV writer against Python's '%.17g', byte for byte, and its peak memory."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from limas import cli


def _assert_formats_like_python(values) -> None:
    values = np.asarray(values, dtype=float).ravel()
    for start in range(0, values.size, cli.CSV_BLOCK_CELLS):
        part = values[start:start + cli.CSV_BLOCK_CELLS]
        sep = np.full(part.size, ord(","), dtype=np.uint8)
        expected = "".join("%.17g," % v for v in part.tolist()).encode("ascii")
        assert cli._format_cells(part, sep) == expected, start


def _with_neighbours(values, ulps: int = 1) -> np.ndarray:
    out = [np.asarray(values, dtype=float)]
    for direction in (0.0, np.inf):
        nearer = out[0]
        for _ in range(ulps):
            nearer = np.nextafter(nearer, direction)
            out.append(nearer)
    both = np.concatenate(out)
    return np.concatenate((both, -both))


def test_random_bit_patterns():
    # every float64 kind: normal, subnormal, negative, inf and nan payloads
    rng = np.random.default_rng(20_261_018)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
    subnormal = rng.integers(1, 2**52, size=20_000, dtype=np.uint64)
    subnormal |= rng.integers(0, 2, size=20_000, dtype=np.uint64) << np.uint64(63)
    _assert_formats_like_python(np.concatenate((bits, subnormal)).view(np.float64))


def test_extremes_powers_of_ten_and_layout_switches():
    extremes = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, np.inf, -np.inf, np.nan]
    powers = [float(f"1e{k}") for k in range(-320, 309)]
    # %.17g turns from the fixed to the exponent form at 1e-4 and 1e17
    switches = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 99999999999999999.0]
    _assert_formats_like_python(extremes)
    _assert_formats_like_python(_with_neighbours(powers))
    _assert_formats_like_python(_with_neighbours(switches, ulps=4))


def test_integers():
    _assert_formats_like_python(np.arange(10**5 + 1))


def test_exact_ties_round_half_even():
    # 1e15 + m/4 and 2^45 + m/16 for odd m: the 17th significant digit is
    # followed by exactly 5, so %.17g rounds half to even
    ties = np.concatenate((1e15 + np.arange(1, 4_000, 2) / 4,
                           2.0**45 + np.arange(1, 4_000, 2) / 16))
    for v in ties[::97].tolist():
        scaled = Fraction(v) * 10 ** (16 - len(str(int(v))) + 1)
        assert scaled % 1 == Fraction(1, 2)
    _assert_formats_like_python(np.concatenate((ties, -ties)))


@pytest.mark.parametrize("block_cells", [cli.CSV_BLOCK_CELLS, 7])
def test_table_over_several_blocks_matches_savetxt(block_cells, tmp_path, monkeypatch):
    # 7 cells is less than one row, so each block is then one row
    monkeypatch.setattr(cli, "CSV_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(7)
    cols = 131
    rows = 3 * max(1, block_cells // cols) + 5
    values = rng.choice([-1.0, 1.0], size=(rows, cols - 1)) * np.exp(
        rng.uniform(-700.0, 700.0, size=(rows, cols - 1)))
    values[1, :3] = 0.0
    table = np.column_stack((np.arange(rows), values))
    header = ",".join(["step"] + [f"c{k}" for k in range(1, cols)])
    ours, reference = tmp_path / "ours.csv", tmp_path / "savetxt.csv"
    cli._write_csv(ours, header, table)
    np.savetxt(reference, table, fmt=["%d"] + ["%.17g"] * (cols - 1), delimiter=",",
               header=header, comments="")
    assert ours.read_bytes() == reference.read_bytes()


def test_writer_memory_stays_bounded(tmp_path):
    # a 301 x 259 table, the N = 256, n = 2 simulate of 300 steps: at 2^13
    # cells a block the traced peak was 3.54 MB (0.81 MB at 2^11, 7.19 MB at
    # 2^14, 34.3 MB at 2^17); the bound is that peak plus 25 %
    rng = np.random.default_rng(259)
    table = np.column_stack((np.arange(301), rng.uniform(-1.0, 1.0, (301, 258))
                             * np.exp(rng.uniform(-40.0, 40.0, (301, 258)))))
    cli._pow10_table(), cli._layout_table()  # built before the trace
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "table.csv", "header", table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 3.54e6
