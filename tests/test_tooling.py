"""Guards for the tooling that drives the package from outside."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import re
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from limas import analyze, cli
from limas.errors import SchemaError
from limas.model_io import load_model
from conftest import count_calls

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "benchmarks" / "run.py"
SOURCES = sorted((ROOT / "src" / "limas").glob("*.py"))
# module-level constants whose names mark them as tolerances
TOLERANCE_NAME = re.compile(r"RTOL|FLOOR|THRESHOLD|GUARD|SLOPE|SCALE|SOLVES")


def _tolerance_constants() -> dict[str, str]:
    """{"module.NAME": "NAME"} for each module-level tolerance assignment in src/limas."""
    assigned = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            assigned |= {f"{path.stem}.{t.id}": t.id for t in targets
                         if isinstance(t, ast.Name) and TOLERANCE_NAME.search(t.id)}
    return assigned


def _load_benchmark_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve():
    # ``run.py --trace 1`` wraps each target by name; a missing one crashes it
    run = _load_benchmark_module(RUN_PY, "limas_bench_run")
    targets, _ = run.traced_targets()
    assert targets
    for module_name, attr, _, _ in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_analyze_sees_one_joint_diagonalization():
    # the benchmark's per-layer rows read the public stage; analyze must call
    # it, and form the commutator once, for them to see the stage at all
    run = _load_benchmark_module(RUN_PY, "limas_bench_run")
    tracing = _load_benchmark_module(ROOT / "benchmarks" / "tracing.py", "limas_bench_tracing")
    tracer = tracing.Tracer()
    targets, _ = run.traced_targets()
    tracer.install("limas", targets)
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", str(ROOT / "models" / "four_agent_cycle.json")])
    finally:
        tracer.restore()
    assert code == 0
    calls = {name: count for name, (count, _) in tracer.self_times().items()}
    assert calls.get("graphs.simultaneous_diagonalize", 0) == 1
    assert calls.get("graphs.commute_check", 0) == 1
    assert calls.get("cli.cmd_analyze", 0) == 1
    # each condition runs once, and the Riccati gain is verified once, by modal radii
    for layer in ("check_modal_controllability", "sufficient_check", "necessary_check",
                  "solve_mare", "modal_radii"):
        assert calls.get(f"analysis.{layer}", 0) == 1, layer
    assert calls.get("oracle.verify_gain", 0) == 0


def test_analyze_of_a_complete_communication_graph_forms_no_eigenvectors(monkeypatch):
    # the showcase model communicates all-to-all: its joint pairing needs
    # eigenvalues only, and no other stage of analyze solves for eigenvectors
    calls = count_calls(monkeypatch, "eigh")
    with redirect_stdout(io.StringIO()):
        code = cli.main(["analyze", str(ROOT / "models" / "four_agent_cycle.json")])
    assert code == 0
    assert calls == []


LINALG_KERNELS = ("eigvals", "eigvalsh", "eigh", "svd", "solve", "det")


def _kernel_key(name: str, arrays) -> tuple:
    """(kernel, shapes, sha1 of the bytes) of one call's array arguments."""
    arrays = [np.ascontiguousarray(a) for a in arrays]
    digest = hashlib.sha1(b"".join(a.tobytes() for a in arrays)).hexdigest()
    return name, tuple(a.shape for a in arrays), digest


def test_analyze_computes_each_quantity_once(tmp_path, workloads, monkeypatch):
    # a census of numpy's linalg kernels over one analyze of every benchmark
    # model kind: no input reaches a kernel twice, and no N x N input, such as
    # a Laplacian, is normed twice. Small inputs of equal bytes, such as zero
    # 2 x 2 matrices, are normed more than once by right
    calls, norms = [], []
    for name, seen in [(name, calls) for name in LINALG_KERNELS] + [("norm", norms)]:
        def recorded(*args, _name=name, _seen=seen, _kernel=getattr(np.linalg, name), **kwargs):
            _seen.append(_kernel_key(_name, [a for a in args if isinstance(a, np.ndarray)]))
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    kinds = []
    for workload in ("analyze-ladder", "riccati-near-critical"):
        workdir = tmp_path / workload
        workdir.mkdir()
        kinds += workloads.build(workload, 1, workdir)[0]
    kinds = [case for case in kinds if (" N=64 " in case.label and "star" not in case.label)
             or "star N=8 " in case.label or case.label.endswith(" d=0.1")]
    assert len(kinds) == 13
    for case in kinds:
        N = load_model(case.model).N
        calls.clear()
        norms.clear()
        with redirect_stdout(io.StringIO()):
            cli.main(["analyze", case.model, "--format", "json"])
        repeats = {key: count for key, count in Counter(calls).items() if count > 1}
        assert repeats == {}, case.label
        repeats = {key: count for key, count in Counter(norms).items()
                   if count > 1 and key[1] == ((N, N),)}
        assert repeats == {}, case.label


def test_near_critical_round_solves_ignore_rounding(tmp_path, workloads):
    # seeds 1 and 57 jitter the poles and weights of the same models; once
    # Newton stops where its quadratic convergence reaches rounding, the
    # Stein solves of a benchmark round no longer follow those last digits
    solves = []
    for seed in (1, 57):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        cases, _, _ = workloads.build("riccati-near-critical", seed, workdir)
        solves.append(sum(case.weight * analyze(load_model(case.model)).mare_iterations
                          for case in cases))
    assert solves[0] == solves[1] <= 650


PUBLIC_NAMES = [
    "AnalysisReport", "AssumptionCheck", "ConvergenceMetrics", "GainVerification",
    "GridSearchResult", "LimasModel", "MareSolution", "NecessaryResult", "ScalarResult",
    "SpectralPair", "SufficientResult", "Trajectory", "WeightedGraph",
    "analyze", "closed_loop_matrix", "convergence_metrics", "initial_state",
    "is_connected", "laplacian", "load_model", "modal_radii", "model_from_dict",
    "model_to_dict", "necessary_check", "projected_deviation_matrix", "save_model",
    "scalar_check", "scalar_grid_search", "simulate",
    "solve_mare", "sufficient_check", "verify_gain",
]


def test_public_names_are_pinned():
    # a public name is added only with a reason and removed only as an API
    # change, so either shows in this list's diff
    import limas

    assert sorted(limas.__all__) == PUBLIC_NAMES
    assert len(set(limas.__all__)) == len(limas.__all__)
    assert [name for name in PUBLIC_NAMES if not hasattr(limas, name)] == []


# What a model's checks compute from it, by type and by parameter name. A
# public callable that took one could be handed a value of another model.
MODEL_VALUE_TYPES = ("SpectralPair", "SufficientResult", "NecessaryResult", "ScalarResult")
MODEL_VALUE_PARAMS = ("radii", "sufficient", "spec", "spectrum", "lambda_p", "lambda_c",
                      "open_loop")


def test_no_public_callable_takes_a_value_computed_from_a_model():
    # a model owns its spectra and its checks, and analyze alone certifies a
    # gain, so every public check, synthesis and report takes the model (and a
    # gain) alone. A record's constructor, whose parameters are its fields, is
    # exempt: the report and the results hold these values
    import limas

    callables = []
    for name in limas.__all__:
        obj = getattr(limas, name)
        if inspect.isclass(obj):
            record = dataclasses.is_dataclass(obj) and list(inspect.signature(obj).parameters) \
                == [field.name for field in dataclasses.fields(obj)]
            callables += [] if record else [(name, obj)]
            callables += [(f"{name}.{attr}", member) for attr, member in vars(obj).items()
                          if inspect.isfunction(member) and not attr.startswith("_")]
        elif callable(obj):
            callables.append((name, obj))
    assert ("LimasModel", limas.LimasModel) in callables
    assert ("AnalysisReport.to_dict", limas.AnalysisReport.to_dict) in callables
    taking = [f"{name}({param.name})" for name, obj in callables
              for param in inspect.signature(obj).parameters.values()
              if param.name in MODEL_VALUE_PARAMS
              or any(kind in str(param.annotation) for kind in MODEL_VALUE_TYPES)]
    # the one exception: solve_mare takes matrices, not a model, and a caller
    # that holds the spectrum of Abar hands it on, for the same bits
    assert taking == ["solve_mare(spectrum)"]
    # the report's one public method reads it; none writes a certificate or verdict
    assert [attr for attr, member in vars(limas.AnalysisReport).items()
            if inspect.isfunction(member) and not attr.startswith("_")] == ["to_dict"]
    assert "SpectralPair" in str(
        inspect.signature(limas.LimasModel.joint_spectrum.func).return_annotation)


def test_the_oracle_judges_take_the_model_first():
    # each judge, and the projection verify_gain judges, builds its matrices
    # from a validated model, so no raw matrix reaches it from a model it
    # does not belong to
    from limas import oracle

    for judge in (oracle.verify_gain, oracle.scalar_grid_search,
                  oracle.projected_deviation_matrix):
        first = next(iter(inspect.signature(judge).parameters.values()))
        assert (first.name, first.annotation) == ("model", "LimasModel"), judge.__name__


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


def test_readme_edge_error_example_is_verbatim(tmp_path):
    # the "Model files" section quotes an edge error; the code must still print it
    section = (ROOT / "README.md").read_text(encoding="utf-8") \
        .split("\n## Model files\n", 1)[1].split("\n## ", 1)[0]
    quoted = re.search(r"for example\s+`([^`]+)`", section).group(1)
    assert quoted == "'physical_edges': edge 3 is a self-loop"
    data = json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    data["physical_edges"] = [{"i": i, "j": j, "weight": 0.1}
                              for i, j in ((1, 2), (2, 3), (3, 4), (2, 2))]
    path = tmp_path / "self-loop.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SchemaError) as excinfo:
        load_model(path)
    assert str(excinfo.value) == quoted


def test_readme_names_every_tolerance_constant():
    # the "Command line" section lists each fixed tolerance by module and name
    section = (ROOT / "README.md").read_text(encoding="utf-8") \
        .split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([a-z_]+\.[A-Z][A-Z0-9_]*)`", section))
    assert named
    for dotted in named:
        module, attr = dotted.split(".")
        assert hasattr(importlib.import_module(f"limas.{module}"), attr), dotted
    assigned = set(_tolerance_constants())
    assert assigned
    assert sorted(assigned - named) == []


def test_every_error_is_raised_and_every_tolerance_is_read():
    # an error class nothing raises, or a tolerance nothing reads, outlived its job
    raised, read = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", ""))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    errors = importlib.import_module("limas.errors")
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__} - {"LimasError"}
    assert defined
    assert sorted(defined - raised) == []
    constants = _tolerance_constants()
    assert constants
    assert sorted(dotted for dotted, name in constants.items() if name not in read) == []


def test_every_private_helper_has_a_caller():
    # a _helper nothing in the package refers to, outside its own body, is dead code
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]

    def references(tree) -> Counter:
        return Counter(
            node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)))

    everywhere = sum((references(tree) for tree in trees), Counter())
    helpers = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert helpers
    assert sorted(node.name for node in helpers
                  if everywhere[node.name] == references(node)[node.name]) == []


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


JUDGES = {"modal_radii", "verify_gain", "_rounding_refusal"}
# the fields of AnalysisReport that record a gain and its certificate
GAIN_RECORD = {"gain", "gain_source", "mare_sigma", "mare_iterations", "modal_radii",
               "certificate_method", "certified_radius", "certificate_detail",
               "consensusable_certified"}


def _scopes_where(tree: ast.Module, match) -> set[str]:
    """Qualified names of the functions of ``tree`` holding a node that ``match`` accepts."""
    scopes = set()

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if match(child):
                scopes.add(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return scopes


def _callers(tree: ast.Module, names: set[str]) -> set[str]:
    """Qualified names of the functions of ``tree`` that call a function named in ``names``."""
    def calls(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")) in names

    return _scopes_where(tree, calls)


def _gain_record_writers(tree: ast.Module) -> set[str]:
    """Qualified names of the functions of ``tree`` that assign a GAIN_RECORD attribute."""
    def writes(node) -> bool:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        return any(isinstance(sub, ast.Attribute) and sub.attr in GAIN_RECORD
                   for target in targets for sub in ast.walk(target))

    return _scopes_where(tree, writes)


def test_only_certify_judges_a_gain():
    # one rule judges every gain analyze produces, Riccati or scalar-interval,
    # so no synthesis step may run a judge of its own or drop a gain it dislikes
    tree = ast.parse((ROOT / "src" / "limas" / "analysis.py").read_text(encoding="utf-8"))
    assert _callers(tree, JUDGES) == {"AnalysisReport._certify"}
    synthesis_failed = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.Raise, ast.ImportFrom))
        and any(getattr(sub, "id", None) == "SynthesisFailed"
                or getattr(sub, "name", None) == "SynthesisFailed" for sub in ast.walk(node))]
    assert synthesis_failed == []


# the calls that read a file or parse JSON
READERS = {"loads", "load", "read_text", "read_bytes"}


def test_one_function_reads_model_and_gain_files():
    # every file limas reads goes through one reader, so every file it cannot
    # read, decode or parse is the same SchemaError naming it
    found = {f"{source.stem}.{name}" for source in sorted((ROOT / "src" / "limas").glob("*.py"))
             for name in _callers(ast.parse(source.read_text(encoding="utf-8")), READERS)}
    assert found == {"model_io._read_json"}
    assert _callers(ast.parse("def f(p):\n    return json.load(open(p))\n"), READERS) == {"f"}


def test_only_certify_writes_the_gain_record():
    # a gain is recorded with its own sigma, solve count and certificate, so no
    # other function may write one of them before or after the judge runs
    tree = ast.parse((ROOT / "src" / "limas" / "analysis.py").read_text(encoding="utf-8"))
    assert _gain_record_writers(tree) == {"AnalysisReport._certify"}
    assert _gain_record_writers(ast.parse("def f(r):\n    r.x, r.mare_sigma = 1, 2\n")) == {"f"}
    assert _gain_record_writers(ast.parse("def f(r):\n    r.verdict = 1\n")) == set()


# the functions of limas.graphs that build a model's Laplacians or check them as a pair
LAPLACIAN_BUILDERS = {"laplacian", "commute_check", "simultaneous_diagonalize"}


def test_only_the_model_builds_and_pairs_its_laplacians():
    # the model builds each Laplacian once, refuses one beyond the float range
    # there and keeps its norm, so nothing else in the package may build one or
    # run a pair check on arrays it did not get from the model
    callers = {f"{path.stem}.{scope}" for path in SOURCES
               for scope in _callers(ast.parse(path.read_text(encoding="utf-8")),
                                     LAPLACIAN_BUILDERS)}
    assert callers == {"analysis.LimasModel._laplacian", "analysis.LimasModel.commute_check",
                       "analysis.LimasModel.joint_spectrum"}
    # reading the cached check is no call
    assert _callers(ast.parse("def f(m):\n    return m.commute_check\n"), LAPLACIAN_BUILDERS) \
        == set()
    assert _callers(ast.parse("def f(g):\n    return graphs.laplacian(g)\n"),
                    LAPLACIAN_BUILDERS) == {"f"}


def _attribute_readers(tree: ast.Module, attr: str) -> set[str]:
    """Qualified names of the functions of ``tree`` that read an attribute named ``attr``."""
    return _scopes_where(tree, lambda node: isinstance(node, ast.Attribute)
                         and node.attr == attr and isinstance(node.ctx, ast.Load))


def test_the_conditions_read_one_stack_of_paired_modes():
    # the model pairs its deviation modes and forms A - lp*Ap once; the
    # conditions read that owner, and only analyze reads the full paired
    # lists for its report, so no condition slices or forms them anew
    tree = ast.parse((ROOT / "src" / "limas" / "analysis.py").read_text(encoding="utf-8"))
    assert _attribute_readers(tree, "joint_spectrum") == {"LimasModel._deviation_modes",
                                                          "analyze"}
    assert _attribute_readers(tree, "_deviation_modes") == {"sufficient_check",
                                                            "necessary_check", "modal_radii"}
    assert _attribute_readers(ast.parse("def f(m):\n    return m.joint_spectrum.lambda_p\n"),
                              "joint_spectrum") == {"f"}
    assert _attribute_readers(ast.parse("def f(m):\n    m.joint_spectrum = 1\n"),
                              "joint_spectrum") == set()


def test_one_function_builds_and_measures_every_controllability_matrix():
    # the Kalman rank test has one owner, so scaling the Krylov matrix or
    # replacing it lands in one place: linalg.controllability is the one SVD,
    # linalg.has_rank the one reader of the rank threshold, and both the
    # assumption check and the Riccati solve reach the test through them
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}

    def callers(names: set[str]) -> set[str]:
        return {f"{stem}.{scope}" for stem, tree in trees.items()
                for scope in _callers(tree, names)}

    def reads_rank_rtol(node) -> bool:
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name == "RANK_RTOL" and isinstance(node.ctx, ast.Load)

    assert callers({"svd"}) == {"linalg.controllability"}
    assert {f"{stem}.{scope}" for stem, tree in trees.items()
            for scope in _scopes_where(tree, reads_rank_rtol)} == {"linalg.has_rank"}
    assert {"analysis.check_modal_controllability", "analysis.solve_mare"} \
        <= callers({"controllability"})


def test_output_digest_repeats():
    # tools/output_digest.py hashes each benchmark case's outputs; the same
    # inputs must give the same lines, whatever ran before them
    digest = _load_benchmark_module(ROOT / "tools" / "output_digest.py", "limas_output_digest")
    first = digest.workload_lines("riccati-near-critical", 1)
    assert len(first) == 12
    assert all(re.fullmatch(r"[0-9a-f]{64}  analyze near-critical n=\d d=\S+", line)
               for line in first)
    assert digest.workload_lines("riccati-near-critical", 1) == first
