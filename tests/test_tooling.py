"""Guards for the tooling that drives the package from outside."""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
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


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # hypothesis reports a failure through an import that warns; under the
    # ini's "error" filter that must not stop pytest before the other tests
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


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


def test_readme_library_example_runs(monkeypatch):
    # the example names library functions and fields; a removed one must fail here
    section = (ROOT / "README.md").read_text(encoding="utf-8") \
        .split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["traj"].step_count == 300


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


def test_numpy_is_the_only_numeric_dependency():
    # scipy may be installed, but neither the package nor its tests may lean on it
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno}" for module in modules
                      if module.split(".")[0] == "scipy"]
    assert found == []


def _runtime_imports(nodes):
    """Absolute names of the modules that limas code imports at run time.

    Imports under ``if TYPE_CHECKING:`` are left out; those in functions count.
    """
    for node in nodes:
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            yield from _runtime_imports(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["limas" if node.level else "", node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)
        yield from _runtime_imports(ast.iter_child_nodes(node))


def _imports_analysis(source: str) -> bool:
    return any(name == "limas.analysis" or name.startswith("limas.analysis.")
               for name in _runtime_imports(ast.parse(source).body))


def test_referee_modules_do_not_import_the_condition_logic():
    # the oracle judges analyze's verdicts, so neither it nor what it builds
    # on may run code from limas.analysis
    assert _imports_analysis("def f():\n    from .analysis import analyze\n")
    assert _imports_analysis("from limas import analysis\n")
    assert not _imports_analysis("if TYPE_CHECKING:\n    from .analysis import LimasModel\n")
    found = [name for name in ("oracle", "simulator", "linalg")
             if _imports_analysis((ROOT / "src" / "limas" / f"{name}.py").read_text(
                 encoding="utf-8"))]
    assert found == []
