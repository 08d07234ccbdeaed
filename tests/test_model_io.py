"""Tests for the JSON model file schema."""

from __future__ import annotations

import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from limas import LimasModel, WeightedGraph, model_from_dict, model_to_dict
from limas.errors import SchemaError
from limas.model_io import _graph, gain_from_file, load_model, save_model
from conftest import UNREADABLE_CONTENTS

SHOWCASE_PATH = Path(__file__).resolve().parent.parent / "models" / "four_agent_cycle.json"


def showcase_dict() -> dict:
    return {
        "schema_version": "1",
        "n": 2,
        "N": 4,
        "A": [1.0, 2.0, 0.0, 1.5],
        "B": [0.0, 1.0],
        "alpha": 0.3,
        "physical_edges": [
            {"i": 1, "j": 2, "weight": 0.1},
            {"i": 2, "j": 4, "weight": 0.1},
            {"i": 4, "j": 3, "weight": 0.1},
            {"i": 1, "j": 3, "weight": 0.1},
        ],
        "communication_edges": [
            {"i": a, "j": b, "weight": 1.0}
            for a in range(1, 5) for b in range(a + 1, 5)
        ],
    }


def test_round_trip_is_bit_exact():
    data = showcase_dict()
    # awkward floats stress the round trip
    data["A"] = [0.1, 1 / 3, -2.5e-17, 1.5]
    data["alpha"] = 0.30000000000000004
    data["physical_edges"][0]["weight"] = 0.7000000000000001
    model = model_from_dict(data)
    recovered = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert np.array_equal(model.A, recovered.A)
    assert np.array_equal(model.Ap, recovered.Ap)
    assert np.array_equal(model.B, recovered.B)
    assert model.gp.edges == recovered.gp.edges
    assert model.gc.edges == recovered.gc.edges
    assert model.alpha == recovered.alpha


def test_save_and_load(tmp_path):
    model = model_from_dict(showcase_dict())
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert np.array_equal(model.A, again.A)
    assert again.gc.edges == model.gc.edges


def test_load_model_drops_the_text_before_it_builds_the_model(tmp_path):
    # the N = 256 complete file: load_model peaks at the larger of the parse
    # (text and document) and the build (document and model), not at the
    # text plus the build
    rng = np.random.default_rng(11)
    N = 256
    gc = WeightedGraph(N, [(i, j, float(rng.uniform(0.1, 1.0)))
                           for i in range(N) for j in range(i + 1, N)])
    path = tmp_path / "complete.json"
    save_model(LimasModel([[0.5, 0.1], [0.0, 1.2]], [[0.0], [1.0]],
                          WeightedGraph.cycle(N, 0.1), gc, alpha=0.3), path)
    tracemalloc.start()
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        _, parse_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        model_from_dict(data)
        _, build_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del data
    tracemalloc.start()
    try:
        load_model(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert load_peak <= 1.02 * max(parse_peak, build_peak)


def test_missing_field():
    data = showcase_dict()
    del data["B"]
    with pytest.raises(SchemaError, match="'B'"):
        model_from_dict(data)


def test_bad_schema_version():
    data = showcase_dict()
    data["schema_version"] = "2"
    with pytest.raises(SchemaError, match="schema_version"):
        model_from_dict(data)


def test_wrong_matrix_length():
    data = showcase_dict()
    data["A"] = [1.0, 2.0, 0.0]
    with pytest.raises(SchemaError, match="must have 4 entries"):
        model_from_dict(data)


def test_non_finite_entry_rejected():
    data = showcase_dict()
    data["A"][1] = float("nan")
    with pytest.raises(SchemaError, match="finite"):
        model_from_dict(data)
    # a JSON integer beyond the float range is reported, not raised as OverflowError
    for key, value, message in (("A", [10**400, 2.0, 0.0, 1.5], r"'A\[0\]' is too large"),
                                ("alpha", 10**400, r"'alpha' is too large"),
                                ("N", 10**400, r"'N' must be an integer in 2\.\.")):
        data = showcase_dict()
        data[key] = value
        with pytest.raises(SchemaError, match=message):
            model_from_dict(data)


def test_nan_in_file_rejected(tmp_path):
    payload = json.dumps(showcase_dict()).replace("1.5", "NaN")
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(SchemaError):
        load_model(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field, index, message", [
    ("A", 1, "'A[1]' must be finite"),
    ("B", 0, "'B[0]' must be finite"),
    ("Ap", 3, "'Ap[3]' must be finite"),
    ("alpha", None, "'alpha' must be finite"),
    ("K", 1, "'K[1]' must be finite"),
])
def test_non_finite_json_literals_are_named(tmp_path, literal, field, index, message):
    # Python's json module reads these literals as floats; each is refused
    # with the field and entry that hold it
    value = json.loads(literal)
    data = {"K": [0.5, -0.25]} if field == "K" else showcase_dict()
    if field == "Ap":
        data["Ap"] = [0.3, 0.6, 0.0, 0.45]
    if index is None:
        data[field] = value
    else:
        data[field][index] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert literal in path.read_text()
    with pytest.raises(SchemaError, match="^" + re.escape(message) + "$"):
        if field == "K":
            gain_from_file(path, 2)
        else:
            load_model(path)


def test_unreadable_or_malformed_model_file(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(SchemaError, match="^" + re.escape(f"cannot read model file {missing}: ")):
        load_model(missing)
    broken = tmp_path / "broken.json"
    broken.write_text('{"n": 1,\n  "N": }')
    with pytest.raises(SchemaError,
                       match="^" + re.escape(f"invalid JSON in {broken}: line 2: Expecting value") + "$"):
        load_model(broken)


@pytest.mark.parametrize("content", UNREADABLE_CONTENTS.values(), ids=UNREADABLE_CONTENTS)
@pytest.mark.parametrize("kind", ["model", "gain"])
def test_a_file_json_cannot_read_is_a_schema_error_naming_it(tmp_path, kind, content):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(content)
    with pytest.raises(SchemaError, match="^" + re.escape(f"cannot read {kind} file {path}: ")):
        if kind == "model":
            load_model(path)
        else:
            gain_from_file(path, 2)


def test_line_endings_do_not_change_the_model(tmp_path):
    # CR and LF are both JSON whitespace, so the bytes are parsed as they are
    original = SHOWCASE_PATH.read_bytes()
    assert b"\r" not in original and original.count(b"\n") > 1
    model = load_model(SHOWCASE_PATH)
    for ending in (b"\r\n", b"\r"):
        twin = tmp_path / "twin.json"
        twin.write_bytes(original.replace(b"\n", ending))
        again = load_model(twin)
        for name in ("A", "Ap", "B"):
            assert np.array_equal(getattr(again, name), getattr(model, name))
        assert again.alpha == model.alpha
        assert again.gp.edges == model.gp.edges
        assert again.gc.edges == model.gc.edges
    # only LF counts as a line end in a JSON error, so a CR-only file is one line
    twin.write_bytes(b'{"n": 1,\r  "N": }')
    with pytest.raises(SchemaError, match="^" + re.escape(f"invalid JSON in {twin}: line 1: ")):
        load_model(twin)


def test_requires_ap_or_alpha():
    data = showcase_dict()
    del data["alpha"]
    with pytest.raises(SchemaError, match="either 'Ap' or 'alpha'"):
        model_from_dict(data)


def test_consistent_ap_and_alpha_accepted():
    data = showcase_dict()
    data["Ap"] = [0.3, 0.6, 0.0, 0.45]
    model = model_from_dict(data)
    assert model.alpha == 0.3


def test_inconsistent_ap_and_alpha_rejected():
    data = showcase_dict()
    data["Ap"] = [0.4, 0.8, 0.0, 0.6]
    with pytest.raises(SchemaError, match="disagree"):
        model_from_dict(data)


def test_disconnected_communication_graph():
    data = showcase_dict()
    data["communication_edges"] = [{"i": 1, "j": 2, "weight": 1.0},
                                   {"i": 3, "j": 4, "weight": 1.0}]
    with pytest.raises(SchemaError, match="communication graph must be connected"):
        model_from_dict(data)


def test_edge_validation():
    data = showcase_dict()
    data["physical_edges"][0] = {"i": 0, "j": 2, "weight": 0.1}
    with pytest.raises(SchemaError, match="1..4"):
        model_from_dict(data)
    data = showcase_dict()
    data["physical_edges"][0] = {"i": 2, "j": 2, "weight": 0.1}
    with pytest.raises(SchemaError, match="self-loop"):
        model_from_dict(data)
    data = showcase_dict()
    data["physical_edges"][0]["weight"] = -0.1
    with pytest.raises(SchemaError, match="positive"):
        model_from_dict(data)
    data = showcase_dict()
    data["physical_edges"].append({"i": 1, "j": 2, "weight": 0.2})
    with pytest.raises(SchemaError, match="duplicate"):
        model_from_dict(data)
    # messages name the field and the edge's position, which files and the library share
    # json.loads accepts these literals; the last is an integer beyond the float range
    for literal in ("NaN", "Infinity", "-Infinity", "1" + "0" * 400):
        raw = json.dumps(showcase_dict()).replace('"weight": 0.1}', f'"weight": {literal}}}', 1)
        with pytest.raises(SchemaError, match=r"'physical_edges': edge 0 .*positive"):
            model_from_dict(json.loads(raw))
    bad_entries = [
        ({"i": True, "j": 2, "weight": 0.1}, r"'physical_edges\[0\]' indices"),
        ({"i": 1.0, "j": 2, "weight": 0.1}, r"'physical_edges\[0\]' indices"),
        ({"i": 2**70, "j": 2, "weight": 0.1}, r"'physical_edges\[0\]' indices"),
        ({"i": 1, "j": 2}, r"'physical_edges\[0\]' must be an object"),
        ([1, 2, 0.1], r"'physical_edges\[0\]' must be an object"),
        ({"i": 1, "j": 2, "weight": "0.1"}, r"'physical_edges\[0\]' weight"),
    ]
    for entry, message in bad_entries:
        data = showcase_dict()
        data["physical_edges"][0] = entry
        with pytest.raises(SchemaError, match=message):
            model_from_dict(data)
    data = showcase_dict()
    data["communication_edges"].insert(3, {"i": 2, "j": 1, "weight": 1.0})
    with pytest.raises(SchemaError, match=r"'communication_edges': edge 3 duplicates"):
        model_from_dict(data)
    data = showcase_dict()
    data["physical_edges"] = {}
    with pytest.raises(SchemaError, match=r"'physical_edges' must be an array"):
        model_from_dict(data)
    # no physical edges at all is a valid, uncoupled model
    data = showcase_dict()
    data["physical_edges"] = []
    assert model_from_dict(data).gp.edges == ()


def test_gain_file(tmp_path):
    path = tmp_path / "gain.json"
    path.write_text('{"K": [0.0, -0.3412]}')
    K = gain_from_file(path, 2)
    assert K.shape == (1, 2)
    assert K[0, 1] == -0.3412
    path.write_text('{"K": [1.0]}')
    with pytest.raises(SchemaError):
        gain_from_file(path, 2)
    # a gain file reads like a model file: unreadable, or not JSON
    missing = tmp_path / "missing-gain.json"
    with pytest.raises(SchemaError, match="^" + re.escape(f"cannot read gain file {missing}: ")):
        gain_from_file(missing, 2)
    path.write_text('{"K": ')
    with pytest.raises(SchemaError, match="^" + re.escape(f"invalid JSON in {path}: line 1: ")):
        gain_from_file(path, 2)


def _reference_graph(raw, N: int, name: str) -> WeightedGraph:
    """The per-entry loop that validated edge lists before the column checks, kept as reference."""
    if not isinstance(raw, list):
        raise SchemaError(f"'{name}' must be an array")
    edges = []
    for idx, e in enumerate(raw):
        if not (type(e) is dict and "i" in e and "j" in e and "weight" in e):
            raise SchemaError(f"'{name}[{idx}]' must be an object with 'i', 'j' and 'weight'")
        i, j, w = e["i"], e["j"], e["weight"]
        if not (type(i) is int and type(j) is int and 1 <= i <= N and 1 <= j <= N):
            raise SchemaError(f"'{name}[{idx}]' indices must be integers in 1..{N}")
        if type(w) is not int and type(w) is not float:
            raise SchemaError(f"'{name}[{idx}]' weight must be a number")
        edges.append((i - 1, j - 1, w))
    try:
        return WeightedGraph(N, edges)
    except ValueError as exc:
        raise SchemaError(f"'{name}': {exc}") from exc


def _corrupt(rng, raw: list, N: int) -> None:
    """Break one intact entry of ``raw`` in place by a rule drawn at random."""
    intact = [k for k, e in enumerate(raw) if type(e) is dict and len(e) == 3]
    if not intact:
        return
    k = intact[rng.integers(len(intact))]
    e = dict(raw[k])
    rule = rng.integers(5)
    if rule == 0:
        raw[k] = [[e["i"], e["j"], e["weight"]], "edge", None][rng.integers(3)]
        return
    if rule == 1:
        del e[("i", "j", "weight")[rng.integers(3)]]
    elif rule == 2:
        bad = [True, 1.0, 0, N + 1, -2**70, 2**70, 10**400][rng.integers(7)]
        e["i" if rng.random() < 0.5 else "j"] = bad
    elif rule == 3:
        e["weight"] = [True, "0.5", None, 0, -0.5, float("nan"), float("inf"),
                       float("-inf"), 10**400][rng.integers(9)]
    elif rng.random() < 0.5:
        e["j"] = e["i"]
    else:
        dup = dict(e, weight=2.0)
        if rng.random() < 0.5:
            dup["i"], dup["j"] = e["j"], e["i"]
        raw.insert(int(rng.integers(len(raw) + 1)), dup)
        return
    raw[k] = e


def test_column_checks_match_the_per_entry_loop():
    rng = np.random.default_rng(17)
    node_pairs = {N: np.column_stack(np.triu_indices(N, 1)) + 1 for N in range(2, 41)}
    messages = set()
    for _ in range(2000):
        N = int(rng.integers(2, 41))
        pairs = node_pairs[N]
        count = int(rng.integers(1, min(len(pairs), 40) + 1))
        ends = pairs[rng.permutation(len(pairs))[:count]]
        flip = rng.random(count) < 0.5
        ends[flip] = ends[flip, ::-1]
        # distinct pairs in random order and orientation, with int and float weights
        weights = [k if as_int else x for k, x, as_int in zip(
            rng.integers(1, 5, count).tolist(), rng.uniform(0.01, 3.0, count).tolist(),
            (rng.random(count) < 0.3).tolist())]
        raw = [{"i": i, "j": j, "weight": w}
               for (i, j), w in zip(ends.tolist(), weights)]
        got, ref = _graph(raw, N, "edges"), _reference_graph(raw, N, "edges")
        for name in ("i", "j", "w"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
            assert getattr(got, name).dtype == getattr(ref, name).dtype
        for _ in range(int(rng.integers(1, 3))):
            _corrupt(rng, raw, N)
        with pytest.raises(SchemaError) as expected:
            _reference_graph(raw, N, "edges")
        with pytest.raises(SchemaError) as actual:
            _graph(raw, N, "edges")
        assert str(actual.value) == str(expected.value)
        messages.add(re.sub(r"[\d.]+", "#", str(expected.value)))
    # the corpus reaches every message an edge list can produce
    assert messages == {
        "'edges[#]' must be an object with 'i', 'j' and 'weight'",
        "'edges[#]' indices must be integers in #",
        "'edges[#]' weight must be a number",
        "'edges': edge # is a self-loop",
        "'edges': edge # weight must be finite and positive",
        "'edges': edge # duplicates an earlier edge",
    }
