"""One sha256 per benchmark case over what ``limas`` prints and writes.

Run from anywhere, with no arguments:

    python3 tools/output_digest.py

For seeds 1-3 it builds every case of every workload in
``benchmarks/workloads.py`` in a temporary directory, runs each case once
in-process through ``limas.cli.main`` from this tree's ``src``, and prints
one line per case: the sha256 over its label, exit code, stdout, stderr and
CSV bytes, then the label. The temporary directory's path is replaced by a
fixed token first, so the digests depend on the outputs alone. The last
line is one total over all case lines. Two trees whose totals agree gave
byte-identical outputs on all cases.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import os
import sys
import tempfile
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
WORKDIR_TOKEN = "<workdir>"


def _cli():
    """limas.cli, imported from this tree's src."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import limas.cli
    return limas.cli


def _workloads():
    """benchmarks/workloads.py, loaded from this tree and kept registered:
    its dataclasses look their module up by name."""
    name = "limas_digest_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "benchmarks" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _run(argv) -> tuple[str, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call; an escaping
    exception reads as exit code "exception" with its traceback on stderr.
    Every warning is shown, so a call's output does not depend on earlier calls."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            rc = str(_cli().main(list(argv)))
        except Exception:
            rc = "exception"
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def workload_lines(workload: str, seed: int) -> list[str]:
    """One "sha256  label" line per case of ``workload`` at ``seed``."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cases, _, _ = _workloads().build(workload, seed, Path(tmp))
        for case in cases:
            rc, stdout, stderr = _run(case.argv)
            csv = case.expect.get("csv")
            csv_bytes = Path(csv).read_bytes() if csv and Path(csv).is_file() else b""
            digest = hashlib.sha256()
            for part in (case.label, rc, stdout, stderr):
                raw = part.replace(tmp, WORKDIR_TOKEN).encode("utf-8")
                digest.update(len(raw).to_bytes(8, "big") + raw)
            csv_bytes = csv_bytes.replace(tmp.encode("utf-8"), WORKDIR_TOKEN.encode("utf-8"))
            digest.update(len(csv_bytes).to_bytes(8, "big") + csv_bytes)
            lines.append(f"{digest.hexdigest()}  {case.label}")
    return lines


def main() -> int:
    total = hashlib.sha256()
    for seed in SEEDS:
        for workload in _workloads().WORKLOADS:
            for line in workload_lines(workload, seed):
                line = f"{line}  [{workload} seed {seed}]"
                print(line)
                total.update(line.encode("utf-8") + b"\n")
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    # one BLAS thread, as in benchmarks/run.py, before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
