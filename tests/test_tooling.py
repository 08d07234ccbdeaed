"""Guards for the tooling that drives the package from outside."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "run.py"


def test_benchmark_trace_targets_resolve():
    # ``run.py --trace 1`` wraps each target by name; a missing one crashes it
    spec = importlib.util.spec_from_file_location("limas_bench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets, _ = run.traced_targets()
    assert targets
    for module_name, attr, _, _ in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
