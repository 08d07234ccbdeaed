"""Golden outputs: the command line's stdout and CSV bytes on three fixed inputs.

Each case runs ``limas.cli.main`` in-process from a temporary directory and
compares its stdout, and for ``simulate`` the SHA-256 of its CSV, byte for
byte with the files under ``tests/golden/``:

- ``analyze`` of ``models/four_agent_cycle.json``, text and ``--format json``;
- ``simulate`` of the same model, ``--seed 42 --steps 300 --out-csv traj.csv``;
- ``oracle`` grid mode, ``--count 4001``, on a scalar (n = 1) model with a
  path physical graph and a star communication graph on 8 nodes.

The files hold the rounding of numpy 2.4.6 on x86-64 Linux: for example the
text report prints ``lambda_p`` entry 0 as ``-6.312e-18``. Another numpy
build or BLAS may differ in the last digits, and then the files must be
regenerated there before they can guard a change. Regenerate them all with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from limas import LimasModel, WeightedGraph
from limas.cli import main
from limas.model_io import save_model

GOLDEN = Path(__file__).resolve().parent / "golden"
SHOWCASE = str(Path(__file__).resolve().parent.parent / "models" / "four_agent_cycle.json")


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"limas {' '.join(argv)} exited {code}"
    return buf.getvalue()


def _analyze_text() -> dict[str, str]:
    return {"analyze.txt": _stdout(["analyze", SHOWCASE])}


def _analyze_json() -> dict[str, str]:
    return {"analyze.json": _stdout(["analyze", SHOWCASE, "--format", "json"])}


def _simulate() -> dict[str, str]:
    out = _stdout(["simulate", SHOWCASE, "--seed", "42", "--steps", "300",
                   "--out-csv", "traj.csv"])
    digest = hashlib.sha256(Path("traj.csv").read_bytes()).hexdigest()
    return {"simulate.txt": out, "simulate-csv.sha256": digest + "\n"}


def _oracle_grid() -> dict[str, str]:
    star = WeightedGraph(8, [(0, j, 1.0) for j in range(1, 8)])
    save_model(LimasModel([[1.1]], [[1.0]], WeightedGraph.path(8, 0.1), star, alpha=0.3),
               "path-star-N8.json")
    return {"oracle-grid.json": _stdout(["oracle", "path-star-N8.json", "--count", "4001"])}


CASES = {f.__name__.lstrip("_"): f for f in (_analyze_text, _analyze_json, _simulate, _oracle_grid)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in CASES[case]().items():
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        GOLDEN.mkdir(exist_ok=True)
        for case in CASES.values():
            for name, text in case().items():
                (GOLDEN / name).write_text(text, encoding="utf-8")
                print(f"wrote {GOLDEN / name}")
