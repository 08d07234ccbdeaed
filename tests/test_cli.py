"""End-to-end tests of the command line interface."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from limas import (LimasModel, WeightedGraph, analysis, analyze, cli, convergence_metrics,
                   graphs, initial_state, simulate)
from limas.errors import Divergence
from limas.cli import main
from limas.model_io import load_model, save_model
from conftest import (
    ROUNDING_FUZZ,
    UNREADABLE_CONTENTS,
    commuting_graph_pair,
    cycle4_graph,
    four_agent_model,
    overflowing_modes_model,
    random_connected_graph,
    random_state_matrix,
)

ROOT = Path(__file__).resolve().parent.parent
SHOWCASE_PATH = ROOT / "models" / "four_agent_cycle.json"


# n = 1 with no stabilizing gain: the modes -5 + 3k and -15 + 3k need
# k in (4/3, 2) and in (14/3, 16/3)
SCALAR_REFUTED = {
    "schema_version": "1", "n": 1, "N": 3,
    "A": [0.0], "B": [1.0], "Ap": [1.0],
    "physical_edges": [{"i": 1, "j": 2, "weight": 5.0},
                       {"i": 2, "j": 3, "weight": 5.0}],
    "communication_edges": [{"i": a, "j": b, "weight": 1.0}
                            for a in range(1, 4) for b in range(a + 1, 4)],
}


@pytest.fixture
def showcase_file(tmp_path) -> str:
    if SHOWCASE_PATH.exists():
        return str(SHOWCASE_PATH)
    path = tmp_path / "model.json"
    save_model(four_agent_model(), path)
    return str(path)


def test_analyze_showcase_exits_zero(showcase_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", showcase_file, "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report == json.loads(out.read_text())
    assert report["sufficient"]["holds"] is True
    assert report["necessary"]["holds"] is True
    assert max(report["modal_radii"]) < 1.0
    assert report["verdict"] == "consensusable"
    assert np.allclose(sorted(report["spectra"]["lambda_p"]), [0, 0.2, 0.2, 0.4], atol=1e-9)
    assert np.allclose(sorted(report["spectra"]["lambda_c"]), [0, 4, 4, 4], atol=1e-9)


def test_main_runs_the_handler_bound_at_call_time(showcase_file, monkeypatch):
    # main reuses one parser, yet a rebound cmd_* attribute is what it calls
    main(["analyze", showcase_file, "--format", "json"])
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.model) or 7)
    assert main(["analyze", showcase_file]) == 7
    assert seen == [showcase_file]


def test_analyze_text_format(showcase_file, capsys):
    code = main(["analyze", showcase_file])
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict: CONSENSUSABLE" in text
    assert "sufficient condition: holds" in text


def test_analyze_text_serializes_the_report_only_for_out(showcase_file, tmp_path, capsys,
                                                         monkeypatch):
    assert main(["analyze", showcase_file, "--format", "json"]) == 0
    expected = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(["analyze", showcase_file, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected
    text = capsys.readouterr().out
    monkeypatch.setattr(analysis.AnalysisReport, "to_dict", lambda self: pytest.fail("serialized"))
    assert main(["analyze", showcase_file]) == 0
    assert capsys.readouterr().out == text


def test_analyze_text_without_joint_spectrum(tmp_path, capsys, monkeypatch):
    # the joint diagonalization fails its residual gate, computed since the
    # cycle communication graph is not scalar: both conditions are unavailable
    path = tmp_path / "model.json"
    save_model(four_agent_model(gc=cycle4_graph(1.0)), path)
    monkeypatch.setattr(graphs, "OFFDIAG_RTOL", 0.0)
    assert main(["analyze", str(path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    for condition in ("sufficient", "necessary"):
        line = next(line for line in lines if line.startswith(f"{condition} condition:"))
        assert re.fullmatch(rf"{condition} condition: unavailable \(off-diagonal residual "
                            r"\S+ too large for the physical Laplacian\)", line)
    assert lines[-1] == "verdict: INCONCLUSIVE"


def test_analyze_text_names_the_synthesis_failure(showcase_file, capsys, monkeypatch):
    def failing(Abar, B, sigma, *, spectrum=None):
        raise Divergence("Newton at sigma = 0.5 stopped after 50 Stein solves: no convergence")

    monkeypatch.setattr(analysis, "solve_mare", failing)
    assert main(["analyze", showcase_file]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "gain: none (Newton at sigma = 0.5 stopped after 50 Stein solves: no convergence)" in lines
    assert lines[-1] == "verdict: INCONCLUSIVE"


def test_analyze_text_names_a_rounded_zero_communication_mode(tmp_path, capsys):
    # the 1e-16 middle edge of the path rounds lambda_c[1] to exactly 0,
    # which the scalar conditions refuse by the connectivity floor
    data = {
        "schema_version": "1", "n": 1, "N": 4,
        "A": [0.5], "B": [1.0], "Ap": [0.1],
        "physical_edges": [{"i": i, "j": i + 1, "weight": 1.0} for i in range(1, 4)],
        "communication_edges": [{"i": 1, "j": 2, "weight": 1.0},
                                {"i": 2, "j": 3, "weight": 1e-16},
                                {"i": 3, "j": 4, "weight": 1.0}],
    }
    path = tmp_path / "split.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert ("gain: none (assumption 0 violated: communication graph effectively disconnected)"
            in lines)
    assert lines[-1] == "verdict: INCONCLUSIVE"


def test_module_entry_point_runs_analyze():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "limas.cli", "analyze", str(SHOWCASE_PATH)],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "verdict: CONSENSUSABLE"


def test_analyze_unreadable_model_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    for path, message in ((missing, f"error: cannot read model file {missing}: "),
                          (broken, f"error: invalid JSON in {broken}: line 1: ")):
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.out == ""


@pytest.mark.parametrize("content", UNREADABLE_CONTENTS.values(), ids=UNREADABLE_CONTENTS)
@pytest.mark.parametrize("command", ["analyze", "simulate", "oracle"])
def test_a_file_json_cannot_read_exits_one_naming_it(showcase_file, tmp_path, capsys,
                                                     command, content):
    # analyze reads it as the model, simulate and oracle as the gain
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if command == "analyze":
        argv, kind = ["analyze", str(bad)], "model"
    else:
        argv, kind = [command, showcase_file, "--gain", str(bad)], "gain"
    if command == "simulate":
        argv += ["--out-csv", str(tmp_path / "traj.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {kind} file {bad}: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "traj.csv").exists()


def test_usage_errors_exit_one(showcase_file, tmp_path, capsys):
    # 2 is analyze's refutation, so a command line argparse rejects must not read as one
    for argv in (["analyze"],
                 ["analyze", showcase_file, "--format", "yaml"],
                 ["simulate", showcase_file, "--steps", "x",
                  "--out-csv", str(tmp_path / "traj.csv")],
                 ["analyze", showcase_file, "--no-such-flag"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err and captured.err.startswith("usage: limas")
    for argv in (["--help"], ["analyze", "--help"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: limas")


def _soundness_model(rng, k: int) -> LimasModel:
    """Model k of the soundness sweep.

    n cycles through 1, 2, 3 and every other model has commuting Laplacians.
    The state matrix's spectral radius reaches 3, so that refutations occur.
    """
    n, N = 1 + k % 3, int(rng.integers(3, 7))
    if k % 2 == 0:
        gp, gc = commuting_graph_pair(rng, N)
    else:
        gp = random_connected_graph(rng, N)
        gc = random_connected_graph(rng, N, w_lo=0.1, w_hi=1.0)
    return LimasModel(random_state_matrix(rng, n, rho_lo=0.5, rho_hi=3.0),
                      rng.uniform(-1.0, 1.0, (n, 1)), gp, gc,
                      alpha=float(rng.uniform(-0.5, 0.5)))


def test_no_verdict_is_both_certified_and_refuted(tmp_path, capsys):
    # a certificate and a refutation contradict each other; the command line
    # exits with the code of the library's verdict
    exit_code = {"consensusable": cli.EXIT_CONSENSUSABLE,
                 "not-consensusable": cli.EXIT_NOT_CONSENSUSABLE,
                 "inconclusive": cli.EXIT_INCONCLUSIVE}
    rng = np.random.default_rng(2024)
    certified = refuted = 0
    path = tmp_path / "model.json"
    for k in range(300):
        model = _soundness_model(rng, k)
        report = analyze(model)
        refutes = (report.necessary is not None and not report.necessary.holds) \
            or (report.scalar is not None and not report.scalar.necessary)
        assert not (report.consensusable_certified and refutes), k
        certified += report.consensusable_certified
        refuted += refutes
        save_model(model, path)
        assert main(["analyze", str(path)]) == exit_code[report.verdict], k
        capsys.readouterr()
    assert certified >= 50 and refuted >= 20, (certified, refuted)


def test_analyze_disconnected_communication_graph(tmp_path, capsys):
    data = {
        "schema_version": "1", "n": 1, "N": 4,
        "A": [0.5], "B": [1.0], "alpha": 0.0,
        "physical_edges": [{"i": 1, "j": 2, "weight": 0.1}],
        "communication_edges": [{"i": 1, "j": 2, "weight": 1.0},
                                {"i": 3, "j": 4, "weight": 1.0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["analyze", str(path)])
    assert code == 1
    assert "communication graph must be connected" in capsys.readouterr().err


def test_analyze_scalar_refuted_exits_two(tmp_path, capsys):
    path = tmp_path / "refuted.json"
    path.write_text(json.dumps(SCALAR_REFUTED))
    code = main(["analyze", str(path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["verdict"] == "not-consensusable"
    assert report["necessary"]["holds"] is False


def test_analyze_text_shows_failed_necessary_inequality(tmp_path, capsys):
    # n = 1: the necessary condition is the exact modal test, so its failure
    # is a sound refutation, and the text states the inequality that failed
    path = tmp_path / "refuted.json"
    path.write_text(json.dumps(SCALAR_REFUTED))
    assert main(["analyze", str(path)]) == 2
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("necessary condition:"))
    assert line.startswith("necessary condition: FAILS (")
    assert " >= rhs " in line and " < rhs " not in line


def test_analyze_does_not_refute_a_stabilizable_coupled_model(tmp_path, capsys):
    # n = 2, Ap = 0.3*A: the paper's determinant inequality fails, yet the
    # gain K = [1.7, -0.1] passes the referee, so the verdict is inconclusive
    data = {
        "schema_version": "1", "n": 2, "N": 3,
        "A": [-2.2, -0.5, -1.3, 1.7], "B": [0.0, 1.0], "alpha": 0.3,
        "physical_edges": [{"i": 1, "j": 2, "weight": 1.0},
                           {"i": 2, "j": 3, "weight": 1.0}],
        "communication_edges": [{"i": a, "j": b, "weight": 1.0}
                                for a in range(1, 4) for b in range(a + 1, 4)],
    }
    path = tmp_path / "coupled.json"
    path.write_text(json.dumps(data))
    gain = tmp_path / "gain.json"
    gain.write_text(json.dumps({"K": [1.7, -0.1]}))
    assert main(["analyze", str(path), "--format", "json"]) == 3
    necessary = json.loads(capsys.readouterr().out)["necessary"]
    assert necessary["holds"] is True and necessary["lhs"] >= necessary["rhs"]
    assert main(["analyze", str(path)]) == 3
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("necessary condition:"))
    assert line.startswith("necessary condition: holds (") and " >= rhs " in line
    assert main(["oracle", str(path), "--gain", str(gain)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["stable"] is True
    assert result["max_radius"] == pytest.approx(0.5264, abs=1e-4)


def test_analyze_inconclusive_exits_three(tmp_path, capsys):
    # non-commuting graphs, vector dynamics: nothing can be decided
    data = {
        "schema_version": "1", "n": 2, "N": 3,
        "A": [1.0, 2.0, 0.0, 1.5], "B": [0.0, 1.0], "alpha": 0.3,
        "physical_edges": [{"i": 1, "j": 2, "weight": 1.0},
                           {"i": 2, "j": 3, "weight": 1.0}],
        "communication_edges": [{"i": 1, "j": 2, "weight": 1.0},
                                {"i": 1, "j": 3, "weight": 3.0}],
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(data))
    code = main(["analyze", str(path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["verdict"] == "inconclusive"


def test_sufficient_terms_beyond_the_float_range_are_inconclusive(tmp_path, capsys):
    # communication modes near 1e-160 and 1e-200 put the squared gain spread
    # beyond the float range: it reads as inf, the condition fails and the
    # report stays valid JSON, where no gain is certified
    data = json.loads(SHOWCASE_PATH.read_text())
    for scale in (1e-160, 1e-200):
        for edge in data["communication_edges"]:
            edge["weight"] = scale
        path = tmp_path / f"scaled-{scale:g}.json"
        path.write_text(json.dumps(data))
        code = main(["analyze", str(path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        assert report["sufficient"]["holds"] is False
        assert report["sufficient"]["lhs"] == np.inf
        assert report["gain"] is None and report["verdict"] == "inconclusive"
        assert main(["analyze", str(path)]) == 3
        assert "sufficient condition: does not hold (lhs inf" in capsys.readouterr().out


@pytest.mark.parametrize("physical", ["complete", "cycle"])
def test_modes_beyond_the_float_range_are_inconclusive(tmp_path, capsys, physical):
    # every deviation mode 1e308 - lp * 3e307 is beyond the float range: no
    # condition decides, no warning reaches stderr, and analyze exits 3
    path = tmp_path / "overflowing-modes.json"
    save_model(overflowing_modes_model(physical), path)
    assert main(["analyze", str(path), "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["sufficient"] == {
        "error": "alpha_max * A is beyond the float range (alpha_max = 119)"}
    assert report["necessary"]["holds"] is True and report["scalar"]["necessary"] is True
    assert report["verdict"] == "inconclusive"
    # the nan lhs is neither below rhs nor at or above it
    assert main(["analyze", str(path), "--format", "text"]) == 3
    text = capsys.readouterr().out
    assert "necessary condition: holds (gamma_c 1, lhs nan vs rhs 2)\n" in text


def test_a_gain_beyond_the_float_range_is_inconclusive(tmp_path, capsys):
    # b = 1e-320 puts the start gain and k_recommended / b beyond the float
    # range, and b = 1e-158 with weight 1e-152 both gains: no gain, no error,
    # and the line names each attempt's reason in attempt order
    cases = {
        "start": (LimasModel([[0.5]], [[1e-320]], WeightedGraph.path(3, 0.1),
                             WeightedGraph.complete(3, 1.0), alpha=0.1),
                  "the start gain is beyond the float range"),
        "riccati": (LimasModel([[0.5]], [[1e-158]], WeightedGraph(3, []),
                               WeightedGraph.complete(3, 1e-152), alpha=0.0),
                    "the riccati gain is beyond the float range"),
    }
    for name, (model, first) in cases.items():
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        assert main(["analyze", str(path)]) == 3
        captured = capsys.readouterr()
        assert (f"gain: none ({first}; the scalar-interval gain is beyond the float range)\n"
                in captured.out)
        assert captured.err == ""


def test_a_riccati_gain_beyond_the_float_range_leaves_no_record(tmp_path, capsys):
    # with weight 5e-152 the Riccati gain's scaling overflows without a warning
    # (they are errors here) and is not recorded, so the scalar-interval gain
    # is recorded without the Riccati sigma and solve count
    path = tmp_path / "tiny-weight.json"
    save_model(LimasModel([[0.5]], [[1e-158]], WeightedGraph(3, []),
                          WeightedGraph.complete(3, 5e-152), alpha=0.0), path)
    assert main(["analyze", str(path), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["gain"] == {"K": [1.6666666666666666e+308], "source": "scalar-interval",
                              "sigma": None, "mare_iterations": None}
    assert report["certificate"] == {"method": "modal-radii", "max_radius": 0.75}
    assert report["verdict"] == "consensusable"


def test_analyze_output_is_deterministic(showcase_file, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["analyze", showcase_file, "--out", str(out1)])
    main(["analyze", showcase_file, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_writes_csv(showcase_file, tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    code = main(["simulate", showcase_file, "--seed", "42", "--steps", "100",
                 "--out-csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,delta_norm_1,delta_norm_2,delta_norm_3,delta_norm_4,xbar_1,xbar_2"
    assert len(lines) == 102
    settled = [int(row.split(",")[0]) for row in lines[1:]
               if max(float(v) for v in row.split(",")[1:5]) < 1e-3]
    assert settled and settled[0] <= 300
    summary = capsys.readouterr().out
    assert "settled below" in summary
    assert f"step {settled[0]}" in summary


def test_simulate_has_no_threshold_flag(showcase_file, tmp_path, capsys):
    # the settling threshold is simulator.SETTLING_THRESHOLD, not an option
    with pytest.raises(SystemExit) as err:
        main(["simulate", showcase_file, "--threshold", "1e-3",
              "--out-csv", str(tmp_path / "traj.csv")])
    assert err.value.code == 1
    assert "unrecognized arguments: --threshold" in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


def test_simulate_deterministic_csv(showcase_file, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", showcase_file, "--seed", "7", "--steps", "50",
          "--out-csv", str(p1)])
    main(["simulate", showcase_file, "--seed", "7", "--steps", "50",
          "--out-csv", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def _unstable_pair_files(tmp_path) -> tuple[str, str]:
    """A decoupled pair of agents x+ = 2x with the zero gain: a growing loop."""
    data = {
        "schema_version": "1", "n": 1, "N": 2,
        "A": [2.0], "B": [1.0], "alpha": 0.0,
        "physical_edges": [{"i": 1, "j": 2, "weight": 0.1}],
        "communication_edges": [{"i": 1, "j": 2, "weight": 1.0}],
    }
    model_path = tmp_path / "unstable.json"
    model_path.write_text(json.dumps(data))
    gain_path = tmp_path / "gain.json"
    gain_path.write_text('{"K": [0.0]}')
    return str(model_path), str(gain_path)


def test_simulate_with_gain_file_reports_no_decay_of_a_growing_run(tmp_path, capsys):
    # growth within the float range is a run, judged by the decay fit
    model_path, gain_path = _unstable_pair_files(tmp_path)
    csv_path = tmp_path / "t.csv"
    code = main(["simulate", model_path, "--gain", gain_path,
                 "--steps", "500", "--out-csv", str(csv_path)])
    assert code == 0
    assert "decay rate 2, settled below 0.001: never [no decay]" in capsys.readouterr().out
    assert len(csv_path.read_text().splitlines()) == 502


def test_simulate_with_gain_file_overflow(tmp_path, capsys):
    # the mean and deviations double each step; the run stops at the first step
    # with an entry beyond max / (N n), and the step before it completes
    model_path, gain_path = _unstable_pair_files(tmp_path)
    csv_path = tmp_path / "t.csv"
    code = main(["simulate", model_path, "--gain", gain_path,
                 "--steps", "1100", "--out-csv", str(csv_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: state overflow at step 1021\n"
    assert not csv_path.exists()
    assert main(["simulate", model_path, "--gain", gain_path,
                 "--steps", "1020", "--out-csv", str(csv_path)]) == 0
    last = [float(v) for v in csv_path.read_text().splitlines()[-1].split(",")]
    assert max(abs(v) for v in last[1:]) <= np.finfo(float).max / 2
    assert 2 * max(abs(v) for v in last[1:]) > np.finfo(float).max / 2


def test_simulate_showcase_completes_while_its_mean_grows(showcase_file, tmp_path, capsys):
    # the certified deviations decay at radius 0.41164 while the mean grows
    # with A's eigenvalue 1.5; the run completes
    csv_path = tmp_path / "t.csv"
    assert main(["simulate", showcase_file, "--steps", "600",
                 "--out-csv", str(csv_path)]) == 0
    assert "decay rate 0.41164," in capsys.readouterr().out
    header, *_, last = csv_path.read_text().splitlines()
    xbar_1 = float(last.split(",")[header.split(",").index("xbar_1")])
    assert xbar_1 == pytest.approx(1.3e107, rel=0.01)


def test_simulate_names_the_sufficient_condition_that_fails(tmp_path, capsys):
    # the ladder's n = 4 companion plant on an N = 8 cycle pair: the
    # sufficient condition fails and the necessary one holds, with no error
    poles = (1.2, 1.1, 0.5, -0.3)
    A = np.eye(4, k=1)
    A[-1, :] = -np.poly(poles)[:0:-1]
    N = 8
    cycle = [(i, (i + 1) % N) for i in range(N)]
    model = LimasModel(A, np.eye(4)[:, 3:], WeightedGraph(N, [(i, j, 0.1) for i, j in cycle]),
                       WeightedGraph(N, [(i, j, 1.0) for i, j in cycle]), alpha=0.3)
    report = analyze(model)
    assert (report.verdict, report.sufficient.holds, report.necessary.holds) == \
        ("inconclusive", False, True)
    assert (report.sufficient_error, report.synthesis_error) == (None, None)
    path, csv_path = tmp_path / "ladder.json", tmp_path / "traj.csv"
    save_model(model, path)
    assert main(["simulate", str(path), "--out-csv", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: automatic gain synthesis failed: "
                            "sufficient condition does not hold\n")
    assert captured.out == ""
    assert not csv_path.exists()


def test_oracle_grid_interval(tmp_path, capsys):
    data = {
        "schema_version": "1", "n": 1, "N": 3,
        "A": [1.2], "B": [1.0], "alpha": 0.0,
        "physical_edges": [],
        "communication_edges": [{"i": 1, "j": 2, "weight": 1.0},
                                {"i": 2, "j": 3, "weight": 1.0}],
    }
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(data))
    code = main(["oracle", str(path), "--lo", "-2", "--hi", "2", "--count", "4001"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "grid"
    (lo, hi), = out["stabilizing_intervals"]
    assert lo == pytest.approx(-0.7333, abs=0.01)
    assert hi == pytest.approx(-0.2, abs=0.01)


def test_oracle_grid_stable_origin(tmp_path, capsys):
    data = {
        "schema_version": "1", "n": 1, "N": 3,
        "A": [0.5], "B": [1.0], "alpha": 0.0,
        "physical_edges": [],
        "communication_edges": [{"i": 1, "j": 2, "weight": 1.0},
                                {"i": 2, "j": 3, "weight": 1.0}],
    }
    path = tmp_path / "stable.json"
    path.write_text(json.dumps(data))
    code = main(["oracle", str(path), "--lo", "-1", "--hi", "1", "--count", "801"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    (lo, hi), = out["stabilizing_intervals"]
    assert lo < 0.0 < hi


def test_oracle_grid_rejects_vector_dynamics(showcase_file, capsys):
    code = main(["oracle", showcase_file])
    assert code == 1
    assert "n = 1" in capsys.readouterr().err


def test_oracle_grid_rejects_bad_bounds(tmp_path, capsys):
    data = {
        "schema_version": "1", "n": 1, "N": 3,
        "A": [1.2], "B": [1.0], "alpha": 0.0,
        "physical_edges": [],
        "communication_edges": [{"i": 1, "j": 2, "weight": 1.0},
                                {"i": 2, "j": 3, "weight": 1.0}],
    }
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(data))
    for bounds in (["--lo", "5", "--hi", "-5"], ["--lo", "nan"], ["--hi", "inf"]):
        code = main(["oracle", str(path), "--count", "201", *bounds])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error: grid bounds must be finite with lo < hi" in captured.err


def _path_pair_files(tmp_path, physical_weight: float, **plant) -> tuple[str, str]:
    """A model file on two 3-node paths, communication weight 1 and the given
    physical one, with n = 1, B = 1 and ``plant`` (A, alpha, Ap), and a gain file K = 0.5."""
    edges = [{"i": 1, "j": 2}, {"i": 2, "j": 3}]
    data = {"schema_version": "1", "n": 1, "N": 3, "B": [1.0],
            **{key: [value] if key != "alpha" else value for key, value in plant.items()},
            "physical_edges": [dict(edge, weight=physical_weight) for edge in edges],
            "communication_edges": [dict(edge, weight=1.0) for edge in edges]}
    model_path, gain_path = tmp_path / "model.json", tmp_path / "gain.json"
    model_path.write_text(json.dumps(data))
    gain_path.write_text(json.dumps({"K": [0.5]}))
    return str(model_path), str(gain_path)


@pytest.mark.parametrize("command", ["analyze", "simulate", "oracle", "oracle --gain"])
def test_a_laplacian_beyond_the_float_range_is_refused_by_every_command(
        command, tmp_path, capsys):
    # the middle node's total weight 3e308 overflows. The model refuses its
    # Laplacian where it builds it, so every command refuses it alike, with no
    # warning (they are errors here), no output and no CSV
    model_path, gain_path = _path_pair_files(tmp_path, 1.5e308, A=1.1, alpha=0.3)
    csv_path = tmp_path / "t.csv"
    argv = {"analyze": ["analyze", model_path],
            "simulate": ["simulate", model_path, "--gain", gain_path,
                         "--out-csv", str(csv_path)],
            "oracle": ["oracle", model_path, "--count", "101"],
            "oracle --gain": ["oracle", model_path, "--gain", gain_path]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: Lp contains non-finite entries\n")
    assert not csv_path.exists()


def test_the_oracle_refuses_a_projection_beyond_the_float_range(tmp_path, capsys):
    # A = 1e308 leaves the Laplacians finite, but the projection of the loop
    # overflows; the oracle refuses it before any eigensolve instead of
    # printing "best_radius": NaN. Neither Ap nor a declared alpha warns
    for plant in ({"Ap": 3e307}, {"alpha": 0.3}):
        model_path, gain_path = _path_pair_files(tmp_path, 1.0, A=1e308, **plant)
        for extra in (["--count", "101"], ["--gain", gain_path]):
            assert main(["oracle", model_path, *extra]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == \
                "error: the projected deviation matrix contains non-finite entries\n"


def test_a_declared_ratio_beyond_the_float_range_is_refused_by_every_command(
        tmp_path, capsys):
    # Ap = alpha * A overflows as the model is built; every command refuses it
    # with one error line, and numpy warns of nothing (warnings are errors here)
    model_path, gain_path = _path_pair_files(tmp_path, 1.0, A=4.0, alpha=1e308)
    csv_path = tmp_path / "t.csv"
    for argv in (["analyze", model_path],
                 ["simulate", model_path, "--gain", gain_path, "--out-csv", str(csv_path)],
                 ["oracle", model_path, "--count", "101"],
                 ["oracle", model_path, "--gain", gain_path]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: Ap contains non-finite entries\n")
    assert not csv_path.exists()


@pytest.mark.parametrize("command, error", [
    ("oracle", "the projected deviation matrix contains non-finite entries"),
    ("simulate", "state overflow at step 1")], ids=["oracle", "simulate"])
def test_a_gain_beyond_the_float_range_is_refused_without_a_warning(
        command, error, showcase_file, tmp_path, capsys):
    # the loop of K = 1e308 overflows as it is formed; the oracle's gate and
    # simulate's Overflow refuse it with one error line, and numpy warns of
    # nothing (warnings are errors here)
    gain_path, csv_path = tmp_path / "gain.json", tmp_path / "t.csv"
    gain_path.write_text('{"K": [1e308, 1e308]}')
    argv = {"oracle": ["oracle", showcase_file, "--gain", str(gain_path)],
            "simulate": ["simulate", showcase_file, "--gain", str(gain_path),
                         "--out-csv", str(csv_path)]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")
    assert not csv_path.exists()


def test_oracle_verify_mode(showcase_file, tmp_path, capsys):
    gain_path = tmp_path / "gain.json"
    gain_path.write_text('{"K": [0.0, -0.3412]}')
    code = main(["oracle", showcase_file, "--gain", str(gain_path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "verify"
    assert out["stable"] is True
    assert out["max_radius"] == pytest.approx(0.94, abs=1e-6)


def test_analyze_scalar_non_commuting_oracle_certificate(tmp_path, capsys):
    # interval gain exists but modal radii are unavailable; the projected
    # closed-loop radius certifies instead
    data = {
        "schema_version": "1", "n": 1, "N": 3,
        "A": [1.2], "B": [1.0], "alpha": 0.1,
        "physical_edges": [{"i": 1, "j": 2, "weight": 1.0},
                           {"i": 2, "j": 3, "weight": 1.0}],
        "communication_edges": [{"i": 1, "j": 2, "weight": 1.0},
                                {"i": 1, "j": 3, "weight": 3.0}],
    }
    path = tmp_path / "scalar_nc.json"
    path.write_text(json.dumps(data))
    code = main(["analyze", str(path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["assumptions"]["commuting_laplacians"]["holds"] is False
    if report["gain"] and "K" in report["gain"]:
        assert report["certificate"]["method"] == "projected-radius"
        if report["certificate"]["max_radius"] < 1.0:
            assert code == 0


def _path_star_scalar(N: int) -> dict:
    """Scalar agents a = 1.1 on a weight-0.1 path, controlled over a unit star."""
    return {
        "schema_version": "1", "n": 1, "N": N,
        "A": [1.1], "B": [1.0], "alpha": 0.3,
        "physical_edges": [{"i": i, "j": i + 1, "weight": 0.1} for i in range(1, N)],
        "communication_edges": [{"i": 1, "j": j, "weight": 1.0} for j in range(2, N + 1)],
    }


@pytest.mark.parametrize("N", [3, 8])
def test_analyze_cli_and_library_agree_non_commuting(N, tmp_path, capsys):
    # the Laplacians do not commute, so only the projected radius certifies
    path = tmp_path / f"path_star_{N}.json"
    path.write_text(json.dumps(_path_star_scalar(N)))
    code = main(["analyze", str(path), "--format", "json"])
    cli_report = json.loads(capsys.readouterr().out)
    lib_report = analyze(load_model(path))
    assert cli_report == json.loads(json.dumps(lib_report.to_dict()))
    assert lib_report.verdict == cli_report["verdict"] == "consensusable"
    assert code == 0
    assert lib_report.certificate_method == "projected-radius"
    assert cli_report["certificate"]["method"] == "projected-radius"


def test_simulate_uses_certified_scalar_gain(tmp_path, capsys):
    # same model as test_analyze_scalar_non_commuting_oracle_certificate
    data = {
        "schema_version": "1", "n": 1, "N": 3,
        "A": [1.2], "B": [1.0], "alpha": 0.1,
        "physical_edges": [{"i": 1, "j": 2, "weight": 1.0},
                           {"i": 2, "j": 3, "weight": 1.0}],
        "communication_edges": [{"i": 1, "j": 2, "weight": 1.0},
                                {"i": 1, "j": 3, "weight": 3.0}],
    }
    path = tmp_path / "scalar_nc.json"
    path.write_text(json.dumps(data))
    csv_path = tmp_path / "traj.csv"
    code = main(["simulate", str(path), "--steps", "100", "--out-csv", str(csv_path)])
    assert code == 0
    report = analyze(load_model(path))
    assert report.consensusable_certified
    assert f"gain K: [{report.gain[0]:.6g}]" in capsys.readouterr().out
    last = csv_path.read_text().strip().splitlines()[-1].split(",")
    assert max(float(v) for v in last[1:4]) < 1e-3


def test_simulate_without_certified_gain_reports_reason(tmp_path, capsys):
    # non-commuting graphs, vector dynamics: analysis certifies no gain
    data = {
        "schema_version": "1", "n": 2, "N": 3,
        "A": [1.0, 2.0, 0.0, 1.5], "B": [0.0, 1.0], "alpha": 0.3,
        "physical_edges": [{"i": 1, "j": 2, "weight": 1.0},
                           {"i": 2, "j": 3, "weight": 1.0}],
        "communication_edges": [{"i": 1, "j": 2, "weight": 1.0},
                                {"i": 1, "j": 3, "weight": 3.0}],
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(data))
    csv_path = tmp_path / "traj.csv"
    code = main(["simulate", str(path), "--out-csv", str(csv_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "automatic gain synthesis failed" in err
    assert "Laplacians do not commute" in err
    assert not csv_path.exists()


@pytest.mark.parametrize("communication", [
    [(1, 2, 1.0), (1, 3, 3.0)],            # non-commuting: the scalar condition refutes
    [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],  # complete: both conditions refute
])
def test_simulate_names_the_refutation(tmp_path, capsys, communication):
    data = {
        "schema_version": "1", "n": 1, "N": 3, "A": [0.0], "B": [1.0], "Ap": [1.0],
        "physical_edges": [{"i": 1, "j": 2, "weight": 5.0}, {"i": 2, "j": 3, "weight": 5.0}],
        "communication_edges": [{"i": i, "j": j, "weight": w} for i, j, w in communication],
    }
    path = tmp_path / "refuted.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 2
    capsys.readouterr()
    csv_path = tmp_path / "traj.csv"
    assert main(["simulate", str(path), "--out-csv", str(csv_path)]) == 1
    assert capsys.readouterr().err == ("error: automatic gain synthesis failed: a necessary "
                                       "condition fails, so no gain reaches consensus\n")
    assert not csv_path.exists()


def test_simulate_names_the_radius_of_an_uncertified_gain(tmp_path, capsys, monkeypatch):
    # the report holds the scalar-interval gain, but its radii do not certify it
    data = {
        "schema_version": "1", "n": 1, "N": 4, "A": [1.1], "B": [1.0], "alpha": 0.3,
        "physical_edges": [{"i": i, "j": j, "weight": 0.1}
                           for i, j in ((1, 2), (2, 4), (4, 3), (3, 1))],
        "communication_edges": [{"i": i, "j": j, "weight": 1.0}
                                for i in range(1, 5) for j in range(i + 1, 5)],
    }
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(analysis, "modal_radii", lambda model, K: np.array([1.5]))
    csv_path = tmp_path / "traj.csv"
    assert main(["simulate", str(path), "--out-csv", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: automatic gain synthesis failed: modal-radii radius 1.5\n"
    assert captured.out == ""
    assert not csv_path.exists()


def test_simulate_names_the_rounding_refusal_of_an_uncertified_gain(tmp_path, capsys):
    # the scalar-interval gain reads radius 0, but the mode's terms cancel, so
    # rounding can move that radius past one and nothing is certified
    a, b, alpha, weight = ROUNDING_FUZZ["m1200"]
    path, csv_path = tmp_path / "m1200.json", tmp_path / "traj.csv"
    save_model(LimasModel([[a]], [[b]], WeightedGraph(2, [(0, 1, weight)]),
                          WeightedGraph(2, [(0, 1, 1.0)]), alpha=alpha), path)
    assert main(["simulate", str(path), "--out-csv", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: automatic gain synthesis failed: modal-radii radius 0, "
                            "not certified: rounding can move the radius by up to 869\n")
    assert captured.out == ""
    assert not csv_path.exists()


def _csv_reference(traj, N: int, n: int) -> bytes:
    """The trajectory CSV written one cell at a time with f"{v:.17g}"."""
    header = (["step"] + [f"delta_norm_{i + 1}" for i in range(N)]
              + [f"xbar_{j + 1}" for j in range(n)])
    rows = [",".join(header)]
    for t in range(traj.step_count + 1):
        cells = [str(t)]
        cells += [f"{v:.17g}" for v in traj.delta_norms[t]]
        cells += [f"{v:.17g}" for v in traj.xbar[t]]
        rows.append(",".join(cells))
    return ("\n".join(rows) + "\n").encode("utf-8")


def _scalar_model_with_gain(tmp_path) -> tuple[str, str]:
    data = {
        "schema_version": "1", "n": 1, "N": 3,
        "A": [1.05], "B": [1.0], "alpha": 0.2,
        "physical_edges": [{"i": 1, "j": 2, "weight": 0.3},
                           {"i": 2, "j": 3, "weight": 0.3}],
        "communication_edges": [{"i": 1, "j": 2, "weight": 1.0},
                                {"i": 2, "j": 3, "weight": 1.0}],
    }
    model_path = tmp_path / "scalar.json"
    model_path.write_text(json.dumps(data))
    gain_path = tmp_path / "gain.json"
    gain_path.write_text('{"K": [0.35]}')
    return str(model_path), str(gain_path)


def _every_layout_model_with_gain(tmp_path) -> tuple[str, str, float]:
    # the mean grows as 1.2^t past 1e17; the deviations shrink as 0.05^t
    # through the subnormal range until they, and so the norms, are exact zeros
    data = {
        "schema_version": "1", "n": 1, "N": 3, "A": [1.2], "B": [1.0], "alpha": 0.3,
        "physical_edges": [],
        "communication_edges": [{"i": i, "j": j, "weight": 1.0}
                                for i in range(1, 4) for j in range(i + 1, 4)],
    }
    model_path = tmp_path / "layouts.json"
    model_path.write_text(json.dumps(data))
    k = (0.05 - 1.2) / 3
    gain_path = tmp_path / "layouts-gain.json"
    gain_path.write_text(json.dumps({"K": [k]}))
    return str(model_path), str(gain_path), k


@pytest.mark.parametrize("which", ["showcase", "scalar", "layouts"])
def test_simulate_csv_matches_per_cell_reference(which, showcase_file, tmp_path):
    steps = 120
    if which == "showcase":
        model_path, extra = showcase_file, []
        K = [analyze(load_model(model_path)).gain]
    elif which == "scalar":
        model_path, gain_path = _scalar_model_with_gain(tmp_path)
        extra = ["--gain", gain_path]
        K = [[0.35]]
    else:
        model_path, gain_path, k = _every_layout_model_with_gain(tmp_path)
        extra = ["--gain", gain_path]
        K = [[k]]
        steps = 300
    csv_path = tmp_path / "traj.csv"
    code = main(["simulate", model_path, *extra, "--seed", "5", "--steps", str(steps),
                 "--out-csv", str(csv_path)])
    assert code == 0
    model = load_model(model_path)
    traj = simulate(model, K, initial_state(model, 5), steps)
    assert csv_path.read_bytes() == _csv_reference(traj, model.N, model.n)
    if which == "layouts":
        cells = set(csv_path.read_text().replace("\n", ",").split(","))
        assert "0" in cells
        assert any(re.fullmatch(r"\d\.\d+e\+(1[7-9]|2\d)", c) for c in cells)
        assert any(re.fullmatch(r"0\.000\d+", c) for c in cells)
        assert any(re.fullmatch(r"\d(\.\d+)?e-1\d\d", c) for c in cells)


def test_simulate_norms_track_deviations_below_the_square_underflow(tmp_path):
    # squaring a deviation below about 1.5e-154 underflows; the norm must not
    model_path, gain_path, _ = _every_layout_model_with_gain(tmp_path)
    csv_path = tmp_path / "traj.csv"
    assert main(["simulate", model_path, "--gain", gain_path, "--seed", "5", "--steps", "300",
                 "--out-csv", str(csv_path)]) == 0
    norms = np.loadtxt(csv_path, delimiter=",", skiprows=1)[:, 1:4]
    # every step shrinks each agent's norm by the mode factor 0.05 while it is a normal float
    normal = norms[1:].min(axis=1) >= np.finfo(float).tiny
    assert normal[:236].all()
    ratios = norms[1:][normal] / norms[:-1][normal]
    assert np.abs(ratios / 0.05 - 1).max() < 1e-13
    # through the subnormal range the norms keep falling, then stay at exact zero
    assert (np.diff(norms, axis=0) <= 0).all()
    assert (norms[-1] == 0).all() and (norms[:240] > 0).all()


def test_convergence_rate_fits_norms_below_the_square_underflow(tmp_path):
    # the total deviation of a step is as accurate as its agents' norms, so the
    # fit over the tail reads the mode factor 0.05 while the norms are normal floats
    model_path, _, k = _every_layout_model_with_gain(tmp_path)
    model = load_model(model_path)
    for steps in (200, 240, 250):
        traj = simulate(model, [[k]], initial_state(model, 5), steps)
        assert abs(convergence_metrics(traj).rate - 0.05) <= 1e-12, steps


def test_simulate_gz_name_writes_plain_text(showcase_file, tmp_path):
    plain, gz = tmp_path / "traj.csv", tmp_path / "traj.csv.gz"
    assert main(["simulate", showcase_file, "--steps", "30", "--out-csv", str(plain)]) == 0
    assert main(["simulate", showcase_file, "--steps", "30", "--out-csv", str(gz)]) == 0
    assert gz.read_bytes() == plain.read_bytes()
    assert gz.read_bytes().startswith(b"step,delta_norm_1,")


def test_simulate_too_short_to_fit_leaves_no_csv(showcase_file, tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    code = main(["simulate", showcase_file, "--steps", "5", "--out-csv", str(csv_path)])
    assert code == 1
    assert "need at least 10 steps" in capsys.readouterr().err
    assert not csv_path.exists()


def test_unwritable_output_path_is_an_error(showcase_file, tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    model_path, gain_path = _scalar_model_with_gain(tmp_path)
    for argv in (["analyze", showcase_file, "--out", str(missing / "r.json")],
                 ["simulate", showcase_file, "--steps", "20",
                  "--out-csv", str(missing / "t.csv")],
                 ["oracle", model_path, "--gain", gain_path,
                  "--out", str(missing / "o.json")]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(missing) in captured.err
        assert captured.out == ""


def test_simulate_names_a_negative_seed(showcase_file, tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    code = main(["simulate", showcase_file, "--seed", "-1", "--out-csv", str(csv_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"
    assert captured.out == ""
    assert not csv_path.exists()
