"""Guards for the tooling that drives the package from outside."""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import inspect
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


def _subcommand_flags() -> dict[str, list[str]]:
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {command: [flag for action in sub._actions for flag in action.option_strings]
            for command, sub in subparsers.choices.items()}


def test_readme_flags_match_cli():
    # the README documents the flags by name; a stale or missing one misleads users
    defined = {flag for flags in _subcommand_flags().values() for flag in flags
               if flag.startswith("--")} - {"--help"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    flag = re.compile(r"--[a-z][a-z-]*")
    assert defined
    assert sorted(defined - set(flag.findall(readme))) == []
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert sorted(set(flag.findall(section)) - defined) == []


def test_readme_names_every_tolerance_constant():
    # the "Command line" section lists each fixed tolerance by module and name
    section = (ROOT / "README.md").read_text(encoding="utf-8") \
        .split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([a-z_]+\.[A-Z][A-Z0-9_]*)`", section))
    assert named
    for dotted in named:
        module, attr = dotted.split(".")
        assert hasattr(importlib.import_module(f"limas.{module}"), attr), dotted
    tolerance = re.compile(r"RTOL|FLOOR|THRESHOLD|GUARD|SLOPE|SCALE|SOLVES")
    assigned = set()
    for path in sorted((ROOT / "src" / "limas").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            assigned |= {f"{path.stem}.{t.id}" for t in targets
                         if isinstance(t, ast.Name) and tolerance.search(t.id)}
    assert assigned
    assert sorted(assigned - named) == []


def test_no_parameter_or_flag_carries_a_tolerance():
    # each tolerance is one module constant read where it is used
    tolerance = re.compile(r"rtol|atol|tol|threshold|max_iter|floor", re.IGNORECASE)
    found = []
    for name in ("analysis", "graphs", "linalg", "model_io", "oracle", "simulator", "cli"):
        module = importlib.import_module(f"limas.{name}")
        for attr, obj in vars(module).items():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)) \
                    or obj.__module__ != module.__name__:
                continue
            found += [f"{name}.{attr}({param})" for param in inspect.signature(obj).parameters
                      if tolerance.search(param)]
    for command, flags in _subcommand_flags().items():
        found += [f"{command} {flag}" for flag in flags if tolerance.search(flag)]
    assert found == []
