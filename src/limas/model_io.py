"""JSON model files: the on-disk format consumed by the command line.

Schema version "1". Matrices are flat row-major arrays. Node indices are
1-based in files and 0-based inside; the edge rules are those of
:class:`limas.graphs.WeightedGraph`. Numbers round-trip bit-exactly through JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .analysis import LimasModel
from .errors import SchemaError
from .graphs import WeightedGraph

SCHEMA_VERSION = "1"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _real_array(raw, length: int, name: str) -> list[float]:
    _require(isinstance(raw, list), f"'{name}' must be an array")
    _require(len(raw) == length, f"'{name}' must have {length} entries, got {len(raw)}")
    values = []
    for idx, v in enumerate(raw):
        _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                 f"'{name}[{idx}]' must be a number")
        v = float(v)
        _require(np.isfinite(v), f"'{name}[{idx}]' must be finite")
        values.append(v)
    return values


def _graph(raw, N: int, name: str) -> WeightedGraph:
    _require(isinstance(raw, list), f"'{name}' must be an array")
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


def model_from_dict(data: dict) -> LimasModel:
    """Build a model from a schema-version-1 dictionary.

    Raises SchemaError with the offending field named for anything that
    does not validate, including a disconnected communication graph.
    """
    _require(isinstance(data, dict), "model file must contain a JSON object")
    _require(data.get("schema_version") == SCHEMA_VERSION,
             f"'schema_version' must be \"{SCHEMA_VERSION}\"")
    for key in ("n", "N", "A", "B", "physical_edges", "communication_edges"):
        _require(key in data, f"missing required field '{key}'")
    n, N = data["n"], data["N"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             "'n' must be an integer >= 1")
    _require(isinstance(N, int) and not isinstance(N, bool) and N >= 2,
             "'N' must be an integer >= 2")

    A = np.array(_real_array(data["A"], n * n, "A")).reshape(n, n)
    B = np.array(_real_array(data["B"], n, "B")).reshape(n, 1)
    Ap = None
    if data.get("Ap") is not None:
        Ap = np.array(_real_array(data["Ap"], n * n, "Ap")).reshape(n, n)
    alpha = data.get("alpha")
    if alpha is not None:
        _require(isinstance(alpha, (int, float)) and not isinstance(alpha, bool),
                 "'alpha' must be a number")
        alpha = float(alpha)
        _require(np.isfinite(alpha), "'alpha' must be finite")
    _require(Ap is not None or alpha is not None,
             "either 'Ap' or 'alpha' must be present")

    try:
        gp = _graph(data["physical_edges"], N, "physical_edges")
        gc = _graph(data["communication_edges"], N, "communication_edges")
        return LimasModel(A, B, gp, gc, Ap=Ap, alpha=alpha)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def model_to_dict(model: LimasModel) -> dict:
    """Serialize a model back to the schema-version-1 shape (1-based indices)."""
    data = {
        "schema_version": SCHEMA_VERSION,
        "n": model.n,
        "N": model.N,
        "A": [float(v) for v in model.A.ravel()],
        "Ap": [float(v) for v in model.Ap.ravel()],
        "B": [float(v) for v in model.B.ravel()],
        "physical_edges": [
            {"i": i + 1, "j": j + 1, "weight": w} for i, j, w in model.gp.edges
        ],
        "communication_edges": [
            {"i": i + 1, "j": j + 1, "weight": w} for i, j, w in model.gc.edges
        ],
    }
    if model.alpha is not None:
        data["alpha"] = model.alpha
    return data


def load_model(path) -> LimasModel:
    """Load and validate a JSON model file."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read model file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    return model_from_dict(data)


def save_model(model: LimasModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n",
                          encoding="utf-8")


def gain_from_file(path, n: int) -> np.ndarray:
    """Read a gain row from a JSON file of the form {"K": [k1, ..., kn]}."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read gain file {path}: {exc}") from exc
    _require(isinstance(data, dict) and "K" in data, "gain file must contain 'K'")
    return np.array(_real_array(data["K"], n, "K")).reshape(1, n)
