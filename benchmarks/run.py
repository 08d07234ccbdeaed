"""limas benchmark: closed-loop CLI workloads with output checks and a traced pass.

Run from the repository root:

    python3 benchmarks/run.py --workload analyze-ladder --seed 1 --seconds 20 --trace 0

One caller in one process makes in-process calls of ``limas.cli.main`` and
captures stdout, so interpreter start-up and the numpy import are paid once
and reported as ``setup_s``. Calls run in rounds of a fixed mix in a seeded
order. ``--seconds`` sets the number of rounds from the workload's round
time at the seed commit, so every commit makes the same calls.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced round, plus its
call time against that of the untraced rounds. Human-readable
lines before it give every metric with its unit and sample count, the input
hash and the machine configuration. See benchmarks/README.md for the design.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
VERDICT_EXIT = {"consensusable": 0, "not-consensusable": 2, "inconclusive": 3}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True,
                   choices=("analyze-ladder", "riccati-near-critical", "verify-simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class HostProbe:
    """Times a fixed kernel that uses numpy and json but not limas.

    On a shared host the speed of this machine's CPUs changes from one
    second to the next with the load of other tenants: the same call can
    take 1.5x as long a few seconds later. The kernel mixes what limas
    spends its time on (small-matrix products in an interpreter loop, a
    symmetric eigensolve, matrix-vector products, JSON parsing). Its time
    next to a call tracks that call's slowdown, so a call's time scaled by
    ``REFERENCE_MS / probe time`` reads as on a host of fixed speed.
    """

    # Median time of the kernel on a quiet 2-vCPU Xeon guest.
    REFERENCE_MS = 1.5

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.2, -0.5, 1.1]])
        self._I = np.eye(3)
        sym = rng.random((96, 96))
        self._S = sym + sym.T
        self._M = rng.random((400, 400))
        self._x = np.ones(400)
        self._doc = json.dumps([{"i": i, "j": i + 1, "weight": 0.1} for i in range(300)])

    def _kernel(self) -> float:
        t0 = time.perf_counter_ns()
        P = self._I
        for _ in range(150):
            P = self._A.T @ P @ self._A * 0.5 + self._I
        self._np.linalg.eigvalsh(self._S)
        for _ in range(20):
            self._M @ self._x
        json.loads(self._doc)
        return (time.perf_counter_ns() - t0) / 1e6

    def __call__(self) -> float:
        # The first pass refills the caches a large call has evicted.
        return min(self._kernel(), self._kernel())


def measure_setup(probe: HostProbe) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters importing limas.cli (numpy included),
    as measured and scaled by the probe around each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import limas.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        # No timeout: waiting with one polls in steps of up to 50 ms.
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * HostProbe.REFERENCE_MS * 2.0 / (before + probe()))
    return times, scaled


class Runner:
    """Runs cases through ``limas.cli.main`` and keeps what the checks need."""

    def __init__(self, cli, cases, probe: HostProbe):
        self.cli = cli
        self.cases = cases
        self.probe = probe
        self.first: dict[int, tuple[int | None, str]] = {}
        self.latency_ms: list[float] = []
        # Probe time around each op, and the call time scaled by it
        self.probe_ms: list[float] = []
        self.scaled_ms: list[float] = []
        # (case index, call succeeded with the case's first output) per op
        self.ops: list[tuple[int, bool]] = []

    def call(self, idx: int) -> tuple[int | None, str, float]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(list(self.cases[idx].argv))
        except Exception:
            rc = None
            print(f"# exception in {self.cases[idx].label}:\n{traceback.format_exc()}",
                  file=sys.stderr)
        elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
        return rc, out.getvalue(), elapsed_ms

    def op(self, idx: int) -> None:
        before = self.probe()
        rc, stdout, elapsed_ms = self.call(idx)
        host_ms = (before + self.probe()) / 2.0
        self.latency_ms.append(elapsed_ms)
        self.probe_ms.append(host_ms)
        self.scaled_ms.append(elapsed_ms * HostProbe.REFERENCE_MS / host_ms)
        first = self.first.setdefault(idx, (rc, stdout))
        # Identical inputs must give byte-identical output on every call.
        self.ops.append((idx, rc not in (None, 1) and (rc, stdout) == first))

    def rounds(self, orders) -> float:
        """Run one round per order of case indices; return the wall time."""
        t0 = time.perf_counter()
        for order in orders:
            for idx in order:
                self.op(idx)
        return time.perf_counter() - t0


def check_case(limas, case, rc, stdout) -> tuple[bool, bool, bool | None]:
    """Check one case's output: (operation ok, output sound, agrees with library).

    An unsound output is one that is wrong rather than merely missing: a
    certificate whose gain fails verification, a refutation of a model that
    is consensusable by construction, a malformed CSV, or an oracle answer
    that contradicts the generator's own spectral check.
    """
    if rc is None or rc == 1:
        return False, True, None
    if case.kind == "analyze":
        report = json.loads(stdout)
        verdict = report["verdict"]
        ok = sound = rc == VERDICT_EXIT[verdict]
        if case.expect.get("consensusable") and verdict != "consensusable":
            ok = False
            sound = sound and verdict != "not-consensusable"
        model = limas.load_model(case.model)
        if verdict == "consensusable":
            if not limas.verify_gain(model, [report["gain"]["K"]]).stable:
                ok = sound = False
        return ok, sound, limas.analyze(model).verdict == verdict
    if case.kind == "simulate":
        e = case.expect
        header = ",".join(["step"] + [f"delta_norm_{i + 1}" for i in range(e["N"])]
                          + [f"xbar_{j + 1}" for j in range(e["n"])])
        lines = Path(e["csv"]).read_text(encoding="utf-8").splitlines()
        ok = rc == 0 and bool(lines) and lines[0] == header and len(lines) == e["steps"] + 2
        return ok, ok, None
    result = json.loads(stdout)
    if case.kind == "verify":
        ok = rc == 0 and result["stable"] is True
        model = limas.load_model(case.model)
        agree = limas.verify_gain(model, [case.expect["K"]]).stable == result["stable"]
        return ok, ok, agree
    lo, hi = case.expect["interval"]
    spacing = (result["grid"]["hi"] - result["grid"]["lo"]) / (result["grid"]["count"] - 1)
    intervals = result["stabilizing_intervals"]
    ok = (rc == 0 and len(intervals) == 1
          and abs(intervals[0][0] - lo) <= spacing and abs(intervals[0][1] - hi) <= spacing)
    return ok, ok, None


def blas_config(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    return f"{name} ({threads})"


def weighted_percentile(values, weights, q: float) -> float:
    """Percentile of ``values`` repeated by ``weights``, interpolated linearly
    between the midpoints of each value's share of the total weight."""
    import numpy as np

    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    mids = (np.cumsum(w) - w / 2.0) / w.sum()
    return float(np.interp(q, mids, v))


def traced_targets():
    """(module, attr, on_result, on_error) for every traced public function."""
    from limas.errors import Divergence

    counters = dict.fromkeys(("analysis.solve_mare.iterations", "analysis.solve_mare.diverged",
                              "simulator.closed_loop_matrix.bytes", "simulator.simulate.steps",
                              "oracle.scalar_grid_search.points"), 0)

    def add(key, amount):
        counters[key] += amount

    def mare_failed(exc):
        if isinstance(exc, Divergence):
            add("analysis.solve_mare.iterations", exc.iterations)
            add("analysis.solve_mare.diverged", 1)

    targets = [
        ("limas.model_io", "load_model", None, None),
        ("limas.graphs", "WeightedGraph", None, None),
        ("limas.graphs", "is_connected", None, None),
        ("limas.graphs", "laplacian", None, None),
        ("limas.graphs", "commute_check", None, None),
        ("limas.graphs", "simultaneous_diagonalize", None, None),
        ("limas.linalg", "eig_sym", None, None),
        ("limas.linalg", "eig_general", None, None),
        ("limas.linalg", "is_controllable", None, None),
        ("limas.linalg", "controllability_margin", None, None),
        ("limas.linalg", "determinant", None, None),
        ("limas.analysis", "check_modal_controllability", None, None),
        ("limas.analysis", "sufficient_check", None, None),
        ("limas.analysis", "necessary_check", None, None),
        ("limas.analysis", "modal_radii", None, None),
        ("limas.analysis", "solve_mare",
         lambda r: add("analysis.solve_mare.iterations", r.iterations), mare_failed),
        ("limas.simulator", "closed_loop_matrix",
         lambda r: add("simulator.closed_loop_matrix.bytes", r.nbytes), None),
        ("limas.simulator", "simulate",
         lambda r: add("simulator.simulate.steps", r.step_count), None),
        ("limas.simulator", "convergence_metrics", None, None),
        ("limas.oracle", "verify_gain", None, None),
        ("limas.oracle", "scalar_grid_search",
         lambda r: add("oracle.scalar_grid_search.points", r.count), None),
        ("limas.cli", "cmd_analyze", None, None),
        ("limas.cli", "cmd_simulate", None, None),
        ("limas.cli", "cmd_oracle", None, None),
    ]
    return targets, counters


def layer_metrics(tracer, targets, counters) -> dict[str, tuple[float, str]]:
    stats = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    for module_name, attr, _, _ in targets:
        name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
        calls, self_ns = stats.get(name, (0, 0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_ns / 1e6, "ms")
    for key, value in counters.items():
        metrics[key] = (value, "B" if key.endswith(".bytes") else "count")
    return metrics


def latency_metrics(runner, times_ms, cases, reduce) -> dict[str, tuple[float, str]]:
    """Throughput and latency percentiles of the mix from one figure per input.

    ``reduce`` turns the ``times_ms`` of an input's timed calls into that
    figure. Each input counts with its weight, its number of calls in a round.
    """
    calls: dict[int, list[float]] = defaultdict(list)
    for (idx, _), ms in zip(runner.ops, times_ms):
        calls[idx].append(ms)
    weights = [cases[idx].weight for idx in calls]
    per_input = [reduce(times) for times in calls.values()]
    return {
        "ops_per_s": (1000.0 * sum(weights) / sum(w * ms for w, ms in zip(weights, per_input)),
                      "1/s"),
        "op_ms_p50": (weighted_percentile(per_input, weights, 0.5), "ms"),
        "op_ms_p90": (weighted_percentile(per_input, weights, 0.9), "ms"),
    }


def traced_round(runner, order, spans_path: Path):
    """Run one round in ``order`` with every traced function wrapped.

    Writes the spans to ``spans_path`` and returns the summed call time in
    ms and the per-layer metrics. The order comes from its own seeded
    generator, so every count repeats exactly for a given seed.
    """
    from tracing import Tracer

    tracer = Tracer()
    targets, counters = traced_targets()
    tracer.install("limas", targets)
    root_span = tracer.span_id("op")
    try:
        for idx in order:
            span = tracer.open(root_span)
            runner.op(idx)
            tracer.close(span)
    finally:
        tracer.restore()
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return sum(runner.scaled_ms[-len(order):]), layer_metrics(tracer, targets, counters)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "limas" / "__init__.py").is_file():
        print(f"error: limas sources not found under {SRC}", file=sys.stderr)
        return 2
    probe = HostProbe()
    setup_times, setup_scaled = measure_setup(probe)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import limas
    import limas.cli
    if Path(limas.__file__).resolve().parent != SRC / "limas":
        print(f"error: imported limas from {limas.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import ROUND_SECONDS, build

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        cases, input_hash, file_count = build(args.workload, args.seed, workdir)
        runner = Runner(limas.cli, cases, probe)
        mix = [idx for idx, case in enumerate(cases) for _ in range(case.weight)]
        order_rng = np.random.default_rng([args.seed, 1])
        budget = args.seconds if args.trace == 0 else args.seconds / 2.0
        rounds = math.ceil(budget / ROUND_SECONDS[args.workload])

        runner.call(0)  # warm-up, not counted
        wall = runner.rounds([order_rng.permutation(mix) for _ in range(rounds)])
        timed = len(runner.ops)
        untraced_ms = sum(runner.scaled_ms)

        if args.trace:
            traced_ms, metrics = traced_round(
                runner, np.random.default_rng([args.seed, 2]).permutation(mix),
                WORK / "spans" / f"{args.workload}-seed{args.seed}.csv")
            metrics["trace_overhead_share"] = (traced_ms / (untraced_ms / rounds) - 1.0, "share")
            samples = dict.fromkeys(metrics, 1)

        case_ok, agreements, sound = {}, [], True
        for idx, (rc, stdout) in sorted(runner.first.items()):
            ok, case_sound, agree = check_case(limas, cases[idx], rc, stdout)
            case_ok[idx] = ok
            sound = sound and case_sound
            if agree is not None:
                agreements.append(agree)
            if not ok:
                print(f"# failed case: {cases[idx].label} (exit {rc})")
        failed = sum(1 for idx, own_ok in runner.ops if not (own_ok and case_ok[idx]))
        attempted = len(runner.ops)

        if not args.trace:
            metrics = latency_metrics(runner, runner.scaled_ms, cases, statistics.median)
            metrics.update({
                "ok_ops_share": ((attempted - failed) / attempted, "share"),
                "verdict_agreement_share": (sum(agreements) / len(agreements)
                                            if agreements else 1.0, "share"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "setup_s": (statistics.median(setup_scaled), "s"),
            })
            samples = {"ops_per_s": timed, "op_ms_p50": timed, "op_ms_p90": timed,
                       "ok_ops_share": attempted, "verdict_agreement_share": len(agreements),
                       "peak_rss_mb": 1, "setup_s": len(setup_times)}
            print(f"# measured call rate {timed / sum(runner.latency_ms) * 1000.0!r} 1/s "
                  f"over {timed} timed ops, median probe {statistics.median(runner.probe_ms)!r} ms")
            for label, times, reduce in (("unscaled", runner.latency_ms, statistics.median),
                                         ("fastest-scaled", runner.scaled_ms, min)):
                for name, (value, unit) in latency_metrics(runner, times, cases, reduce).items():
                    print(f"# {label} {name} {value!r} {unit}")
            print(f"# unscaled setup_s {statistics.median(setup_times)!r} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rounds} untraced rounds of {len(mix)} calls over {len(cases)} inputs "
          f"in {wall:.3f} s")
    print(f"# inputs: {file_count} files, sha256 {input_hash}")
    print(f"# machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {np.__version__}, blas {blas_config(np)}")
    if not args.trace:
        print(f"# failed_ops_share {failed / attempted!r} share (n={attempted})")
        print(f"# verdict_disagreements {len(agreements) - sum(agreements)} count "
              f"(n={len(agreements)} models)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value!r} {unit} (n={samples[name]})")
    print(json.dumps({
        "correct": sound,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
