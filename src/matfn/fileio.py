"""JSON interchange for matrices, tensors and scalars.

Matrices travel as ``{"dim": n, "entries": [[re, im], ...]}`` with n*n
pairs in row-major order. Tensors use ``{"slot_dims": [d1, ..., dk],
"entries": [...]}`` with the entries flattened in C order over the index
sequence (i1, j1, i2, j2, ...). Scalars are ``{"value": [re, im]}``.
Malformed input raises ValueError.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .tensor import OperatorTensor


def _pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _parse_pair(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
    ):
        raise ValueError(f"{where}: expected a [re, im] pair, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def matrix_to_obj(M) -> dict:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    return {
        "dim": int(A.shape[0]),
        "entries": [_pair(z) for z in A.reshape(-1)],
    }


def _read_entries(obj, what: str, key: str, shape_of) -> np.ndarray:
    """The ``entries`` of a JSON ``what`` object, shaped by ``shape_of(obj[key])``.

    ``shape_of`` checks the value and returns (shape, the object's name in errors)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} object must be a JSON object, got {type(obj).__name__}")
    if key not in obj or "entries" not in obj:
        raise ValueError(f"{what} object needs '{key}' and 'entries'")
    shape, name = shape_of(obj[key])
    size, entries = math.prod(shape), obj["entries"]
    if not isinstance(entries, list) or len(entries) != size:
        got = len(entries) if isinstance(entries, list) else type(entries).__name__
        raise ValueError(f"{name} needs {size} entries, got {got}")
    flat = [_parse_pair(e, f"entry {i}") for i, e in enumerate(entries)]
    return np.array(flat, dtype=complex).reshape(shape)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _matrix_shape(dim):
    if not _is_count(dim):
        raise ValueError(f"'dim' must be a positive integer, got {dim!r}")
    return (dim, dim), f"matrix of dim {dim}"


def matrix_from_obj(obj) -> np.ndarray:
    return _read_entries(obj, "matrix", "dim", _matrix_shape)


def tensor_to_obj(T: OperatorTensor) -> dict:
    return {
        "slot_dims": [int(d) for d in T.slot_dims],
        "entries": [_pair(z) for z in T.data.reshape(-1)],
    }


def _tensor_shape(dims):
    if not isinstance(dims, list) or not dims or not all(_is_count(d) for d in dims):
        raise ValueError(f"'slot_dims' must be a nonempty list of positive integers, got {dims!r}")
    return [n for d in dims for n in (d, d)], f"tensor with slot dims {dims}"


def tensor_from_obj(obj) -> OperatorTensor:
    return OperatorTensor(_read_entries(obj, "tensor", "slot_dims", _tensor_shape))


def scalar_to_obj(z) -> dict:
    return {"value": _pair(z)}


def scalar_from_obj(obj) -> complex:
    if not isinstance(obj, dict) or "value" not in obj:
        raise ValueError("scalar object needs a 'value' pair")
    return _parse_pair(obj["value"], "value")


def dumps(obj) -> str:
    """Canonical rendering: fixed key order, two-space indent, newline."""
    return json.dumps(obj, indent=2) + "\n"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def load_matrix(path: str) -> np.ndarray:
    return matrix_from_obj(load_json(path))


def save_json(path: str, obj) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(obj))
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc
