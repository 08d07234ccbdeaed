"""JSON model files: the on-disk format consumed by the command line.

Schema version "1". Matrices are flat row-major arrays. Node indices are
1-based in files and 0-based inside; the edge rules are those of
:class:`limas.graphs.WeightedGraph`. Numbers round-trip bit-exactly through JSON.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .analysis import LimasModel
from .errors import SchemaError
from .graphs import MAX_NODES, WeightedGraph, _floats

SCHEMA_VERSION = "1"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _real(v, name: str) -> float:
    _require(isinstance(v, (int, float)) and not isinstance(v, bool),
             f"'{name}' must be a number")
    try:
        v = float(v)
    except OverflowError:
        raise SchemaError(f"'{name}' is too large for a float") from None
    _require(math.isfinite(v), f"'{name}' must be finite")
    return v


def _real_array(raw, length: int, name: str) -> list[float]:
    _require(isinstance(raw, list), f"'{name}' must be an array")
    _require(len(raw) == length, f"'{name}' must have {length} entries, got {len(raw)}")
    return [_real(v, f"{name}[{idx}]") for idx, v in enumerate(raw)]


_EDGE_KEYS = ("i", "j", "weight")


def _graph(raw, N: int, name: str) -> WeightedGraph:
    """Validate an edge list and build its graph.

    The format rules are checked a whole column at a time; only once one of
    those checks has failed are the entries read one at a time, to name the
    first bad entry and the first rule it breaks.
    """
    _require(isinstance(raw, list), f"'{name}' must be an array")
    rows = _edge_rows(raw, N)
    if rows is None:
        k, fault = next((k, fault) for k, fault in enumerate(map(_edge_fault, raw, repeat(N)))
                        if fault)
        raise SchemaError(f"'{name}[{k}]' {fault}")
    try:
        return WeightedGraph(N, rows.T)
    except ValueError as exc:
        raise SchemaError(f"'{name}': {exc}") from exc


def _edge_rows(raw: list, N: int) -> np.ndarray | None:
    """The rows i - 1, j - 1 and weight of an edge list as one (3, E) float
    array, or None when some entry breaks a format rule.

    An index beyond int64 fails the range rule; a weight beyond the float
    range reads as +-inf, which WeightedGraph rejects.
    """
    if not set(map(type, raw)) <= {dict}:
        return None
    try:
        i, j, w = (list(map(itemgetter(key), raw)) for key in _EDGE_KEYS)
    except KeyError:
        return None
    if not (set(map(type, i)) | set(map(type, j)) <= {int}
            and set(map(type, w)) <= {int, float}):
        return None
    try:
        ends = np.fromiter(chain(i, j), np.int64, 2 * len(raw))
    except OverflowError:
        return None
    if not ((ends >= 1) & (ends <= N)).all():
        return None
    return np.vstack((ends.reshape(2, len(raw)) - 1, _floats((w,), len(raw))))


def _edge_fault(e, N: int) -> str | None:
    """The first rule that one edge entry breaks, in the order every entry is checked."""
    if not (type(e) is dict and all(key in e for key in _EDGE_KEYS)):
        return "must be an object with 'i', 'j' and 'weight'"
    i, j, w = e["i"], e["j"], e["weight"]
    if not (type(i) is int and type(j) is int and 1 <= i <= N and 1 <= j <= N):
        return f"indices must be integers in 1..{N}"
    if type(w) is not int and type(w) is not float:
        return "weight must be a number"
    return None


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
    _require(isinstance(N, int) and not isinstance(N, bool) and 2 <= N <= MAX_NODES,
             f"'N' must be an integer in 2..{MAX_NODES}")

    A = np.array(_real_array(data["A"], n * n, "A")).reshape(n, n)
    B = np.array(_real_array(data["B"], n, "B")).reshape(n, 1)
    Ap = None
    if data.get("Ap") is not None:
        Ap = np.array(_real_array(data["Ap"], n * n, "Ap")).reshape(n, n)
    alpha = data.get("alpha")
    if alpha is not None:
        alpha = _real(alpha, "alpha")
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


def _read_json(path, kind: str):
    """The JSON document of a file read as strict UTF-8; a file that cannot be
    read, decoded or parsed (nesting or integers beyond Python's limits too)
    is a SchemaError naming it."""
    path = Path(path)
    try:
        return json.loads(path.read_bytes().decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot read {kind} file {path}: {exc}") from exc


def load_model(path) -> LimasModel:
    """Load and validate a JSON model file."""
    return model_from_dict(_read_json(path, "model"))


def save_model(model: LimasModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n",
                          encoding="utf-8")


def gain_from_file(path, n: int) -> np.ndarray:
    """Read a gain row from a JSON file of the form {"K": [k1, ..., kn]}."""
    data = _read_json(path, "gain")
    _require(isinstance(data, dict) and "K" in data, "gain file must contain 'K'")
    return np.array(_real_array(data["K"], n, "K")).reshape(1, n)
