"""Tests for the JSON model file schema."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from limas import model_from_dict, model_to_dict
from limas.errors import SchemaError
from limas.model_io import gain_from_file, load_model, save_model


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


def test_unreadable_or_malformed_model_file(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(SchemaError, match="^" + re.escape(f"cannot read model file {missing}: ")):
        load_model(missing)
    broken = tmp_path / "broken.json"
    broken.write_text('{"n": 1,\n  "N": }')
    with pytest.raises(SchemaError,
                       match="^" + re.escape(f"invalid JSON in {broken}: line 2: Expecting value") + "$"):
        load_model(broken)


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
    for bad, text in ((tmp_path / "missing-gain.json", None), (path, '{"K": ')):
        if text is not None:
            bad.write_text(text)
        with pytest.raises(SchemaError, match="^" + re.escape(f"cannot read gain file {bad}: ")):
            gain_from_file(bad, 2)
