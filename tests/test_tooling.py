"""Guards for the tooling that drives the package from outside."""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import re
from pathlib import Path

from limas import cli

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "benchmarks" / "run.py"


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


def test_readme_flags_match_cli():
    # the README documents the flags by name; a stale or missing one misleads users
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defined = {flag for sub in subparsers.choices.values() for action in sub._actions
               for flag in action.option_strings if flag.startswith("--")} - {"--help"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    flag = re.compile(r"--[a-z][a-z-]*")
    assert defined
    assert sorted(defined - set(flag.findall(readme))) == []
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert sorted(set(flag.findall(section)) - defined) == []
