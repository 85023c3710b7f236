"""JSON round trips and input validation."""

import numpy as np
import pytest

from matfn.fileio import (
    dumps,
    load_json,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    save_json,
    scalar_from_obj,
    scalar_to_obj,
    tensor_from_obj,
    tensor_to_obj,
)
from matfn.tensor import OperatorTensor

rng = np.random.default_rng(19)


def test_matrix_round_trip():
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_obj(matrix_to_obj(M))
    assert np.array_equal(back, M)


def test_matrix_round_trip_through_text():
    M = rng.normal(size=(2, 2))
    import json

    back = matrix_from_obj(json.loads(dumps(matrix_to_obj(M))))
    assert np.array_equal(back, M)


def test_tensor_round_trip():
    data = rng.normal(size=(2, 2, 3, 3)) + 1j * rng.normal(size=(2, 2, 3, 3))
    T = OperatorTensor(data)
    back = tensor_from_obj(tensor_to_obj(T))
    assert back.slot_dims == (2, 3)
    assert np.array_equal(back.data, T.data)


def test_scalar_round_trip():
    z = 1.5 - 2.25j
    assert scalar_from_obj(scalar_to_obj(z)) == z


def test_matrix_to_obj_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        matrix_to_obj(np.ones((2, 3)))


@pytest.mark.parametrize(
    "obj",
    [
        42,
        {"entries": [[1.0, 0.0]]},
        {"dim": 1},
        {"dim": 0, "entries": []},
        {"dim": True, "entries": [[1.0, 0.0]]},
        {"dim": 2, "entries": [[1.0, 0.0]]},
        {"dim": 1, "entries": "nope"},
        {"dim": 1, "entries": [[1.0]]},
        {"dim": 1, "entries": [[1.0, "zero"]]},
        {"dim": 1, "entries": [[True, 0.0]]},
    ],
)
def test_matrix_from_obj_rejects_malformed(obj):
    with pytest.raises(ValueError):
        matrix_from_obj(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"entries": []},
        {"slot_dims": [2]},
        {"slot_dims": [], "entries": []},
        {"slot_dims": [2, 0], "entries": []},
        {"slot_dims": [True], "entries": [[1.0, 0.0]]},
        {"slot_dims": [2], "entries": [[1.0, 0.0]] * 3},
        {"slot_dims": [2], "entries": [[1.0, 0.0]] * 3 + [[1.0]]},
    ],
)
def test_tensor_from_obj_rejects_malformed(obj):
    with pytest.raises(ValueError):
        tensor_from_obj(obj)


_MESSAGES = [
    (matrix_from_obj, 42, "matrix object must be a JSON object, got int"),
    (matrix_from_obj, {"dim": 1}, "matrix object needs 'dim' and 'entries'"),
    (matrix_from_obj, {"dim": True, "entries": []}, "'dim' must be a positive integer, got True"),
    (matrix_from_obj, {"dim": 2, "entries": [[1.0, 0.0]]}, "matrix of dim 2 needs 4 entries, got 1"),
    (matrix_from_obj, {"dim": 1, "entries": "nope"}, "matrix of dim 1 needs 1 entries, got str"),
    (matrix_from_obj, {"dim": 1, "entries": [[1.0, "zero"]]},
     "entry 0: expected a [re, im] pair, got [1.0, 'zero']"),
    (tensor_from_obj, [], "tensor object must be a JSON object, got list"),
    (tensor_from_obj, {"entries": []}, "tensor object needs 'slot_dims' and 'entries'"),
    (tensor_from_obj, {"slot_dims": [2, 0], "entries": []},
     "'slot_dims' must be a nonempty list of positive integers, got [2, 0]"),
    (tensor_from_obj, {"slot_dims": [2], "entries": [[1.0, 0.0]] * 3},
     "tensor with slot dims [2] needs 4 entries, got 3"),
    (tensor_from_obj, {"slot_dims": [1], "entries": "x"},
     "tensor with slot dims [1] needs 1 entries, got str"),
    (tensor_from_obj, {"slot_dims": [2], "entries": [[1.0, 0.0]] * 3 + [[1.0]]},
     "entry 3: expected a [re, im] pair, got [1.0]"),
]


def test_from_obj_error_messages():
    """Matrices and tensors share one reader; each keeps its own wording."""
    for reader, obj, message in _MESSAGES:
        with pytest.raises(ValueError) as err:
            reader(obj)
        assert str(err.value) == message


def test_scalar_from_obj_rejects_malformed():
    with pytest.raises(ValueError):
        scalar_from_obj({"val": [1.0, 0.0]})
    with pytest.raises(ValueError):
        scalar_from_obj({"value": [1.0]})


def test_dumps_is_deterministic():
    M = rng.normal(size=(2, 2))
    obj = matrix_to_obj(M)
    assert dumps(obj) == dumps(matrix_to_obj(M.copy()))
    assert dumps(obj).endswith("\n")


def test_file_round_trip(tmp_path):
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    path = tmp_path / "m.json"
    save_json(str(path), matrix_to_obj(M))
    assert np.array_equal(load_matrix(str(path)), M)


def test_save_json_errors_as_value_errors(tmp_path):
    with pytest.raises(ValueError, match="cannot write"):
        save_json(str(tmp_path / "no-such-dir" / "m.json"), {"a": 1})


def test_load_json_errors_as_value_errors(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_json(str(bad))
