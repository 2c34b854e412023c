"""Wire-format tests: canonical emission, exact round-trips, strict readers."""

import json
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, strategies as st

from polargrass.errors import DimensionMismatch, FormatError
from polargrass.linalg import Frame
from polargrass.orthograss import ChartIndex
from polargrass.serialize import (
    chart_index_from_json,
    chart_index_to_json,
    disk_point_from_json,
    disk_point_to_json,
    dumps_canonical,
    form_from_json,
    form_to_json,
    frame_from_json,
    frame_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    save_json,
    structure_from_json,
    structure_to_json,
    triple_from_json,
    triple_to_json,
)
from polargrass.siegel import SiegelPoint, UpperHalfPoint
from polargrass.triples import standard_triple


def schema(name):
    text = resources.files("polargrass").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


class TestCanonicalEmission:
    def test_seventeen_digit_floats(self):
        # 0.1 is not a dyadic rational; 17 digits pin down its double
        assert dumps_canonical({"x": 0.1}) == '{"x":0.10000000000000001}\n'

    def test_sorted_keys(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'

    def test_scalars(self):
        assert dumps_canonical([True, False, None, 3]) == "[true,false,null,3]\n"
        assert dumps_canonical(np.int64(7)) == "7\n"
        assert dumps_canonical(np.float64(0.5)) == "0.5\n"

    def test_strings_escaped_ascii(self):
        assert dumps_canonical("café") == '"caf\\u00e9"\n'

    def test_non_finite_rejected(self):
        with pytest.raises(FormatError):
            dumps_canonical(float("inf"))
        with pytest.raises(FormatError):
            dumps_canonical({"x": float("nan")})

    def test_non_string_keys_rejected(self):
        with pytest.raises(FormatError):
            dumps_canonical({1: "a"})

    def test_unknown_type_rejected(self):
        with pytest.raises(FormatError):
            dumps_canonical(object())

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_doubles_round_trip_exactly(self, x):
        assert json.loads(dumps_canonical({"x": x}))["x"] == x

    def test_file_round_trip(self, tmp_path):
        payload = {"a": [1, 2.5], "b": {"c": -0.125}}
        path = tmp_path / "payload.json"
        save_json(payload, path)
        assert load_json(path) == payload
        # identical content writes identical bytes
        save_json(payload, tmp_path / "again.json")
        assert path.read_bytes() == (tmp_path / "again.json").read_bytes()

    def test_load_errors(self, tmp_path):
        with pytest.raises(FormatError):
            load_json(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FormatError):
            load_json(bad)


def per_number(data) -> str:
    """The reference for a matrix's data: each number formatted on its own."""
    return "[" + ",".join(f"[{re:.17g},{im:.17g}]" for re, im in data) + "]"


EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                -1.7976931348623157e308, 0.1, -1.5, 1e-300, 123456789.0, 1.0]


def edge_matrix(rows, cols):
    """The edge doubles as real parts, reversed as imaginary parts (assigned
    part by part, as complex arithmetic would turn -0.0 into 0.0)."""
    M = np.empty(len(EDGE_DOUBLES), dtype=complex)
    M.real = EDGE_DOUBLES
    M.imag = EDGE_DOUBLES[::-1]
    return M.reshape(rows, cols)


class TestFloatPairBatch:
    """A list of ``[re, im]`` float pairs is formatted in one batch; its bytes
    must be those of the generic path (tuples do not take the batch)."""

    def test_edge_values_byte_identical(self):
        M = edge_matrix(3, 4)
        obj = matrix_to_json(M)
        text = dumps_canonical(obj)
        generic = dict(obj, data=[tuple(pair) for pair in obj["data"]])
        assert text == dumps_canonical(generic)
        assert per_number(obj["data"]) in text
        assert '"data":[[-0,1],[0,123456789]' in text and "4.9406564584124654e-324" in text

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=20))
    def test_batch_equals_generic_path(self, pairs):
        text = dumps_canonical([list(p) for p in pairs])
        assert text == dumps_canonical(pairs) == per_number(pairs) + "\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_rejected(self, bad):
        M = np.array([[0.5, 1.0], [2.0, 3.0]], dtype=complex)
        M[1, 0] = complex(1.0, bad)
        with pytest.raises(FormatError, match=f"non-finite number {bad!r} is not serializable"):
            dumps_canonical(matrix_to_json(M))

    def test_first_non_finite_is_named(self):
        with pytest.raises(FormatError, match="non-finite number inf "):
            dumps_canonical([[0.5, float("inf")], [float("nan"), 0.5]])

    @pytest.mark.parametrize(
        "obj, text",
        [
            ([[1, 2], [3, 4]], "[[1,2],[3,4]]"),
            ([[10**20, 0.5]], "[[100000000000000000000,0.5]]"),
            ([[True, 0.5]], "[[true,0.5]]"),
            ([[np.float64(0.1), 0.5]], "[[0.10000000000000001,0.5]]"),
            ([[[0.5, 1.5], 2.5]], "[[[0.5,1.5],2.5]]"),
            ([[0.5, 1.5, 2.5]], "[[0.5,1.5,2.5]]"),
            ([[0.5, 1.5], [2.5]], "[[0.5,1.5],[2.5]]"),
            ([[0.5, 1.5], (2.5, 3.5)], "[[0.5,1.5],[2.5,3.5]]"),
            ([[0.5, "x"]], '[[0.5,"x"]]'),
            ([], "[]"),
            ([[]], "[[]]"),
        ],
    )
    def test_other_lists_emit_as_before(self, obj, text):
        assert dumps_canonical(obj) == text + "\n"

    def test_matrix_data_is_the_per_entry_list(self):
        # the vectorized reader of the array keeps every sign and subnormal
        M = edge_matrix(4, 3)
        for arr in (M, M.T, np.asfortranarray(M), np.arange(6).reshape(2, 3)):
            data = matrix_to_json(arr)["data"]
            ref = [[float(z.real), float(z.imag)] for z in np.asarray(arr, complex).ravel()]
            assert repr(data) == repr(ref)
            assert all(type(x) is float for pair in data for x in pair)


class TestMatrixFormat:
    def test_round_trip_exact(self, rng):
        M = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        obj = json.loads(dumps_canonical(matrix_to_json(M)))
        assert np.array_equal(matrix_from_json(obj), M)

    def test_validates_against_schema(self, rng):
        obj = json.loads(dumps_canonical(matrix_to_json(rng.normal(size=(2, 2)))))
        jsonschema.validate(obj, schema("matrix.v1.json"))

    def test_vector_input_rejected(self):
        with pytest.raises(FormatError):
            matrix_to_json(np.zeros(3))

    def test_reader_rejections(self):
        good = matrix_to_json(np.eye(2))
        short = dict(good, data=good["data"][:3])
        with pytest.raises(FormatError):
            matrix_from_json(short)
        with pytest.raises(FormatError):
            matrix_from_json(dict(good, rows=0))
        with pytest.raises(FormatError):
            matrix_from_json(dict(good, extra=1))
        with pytest.raises(FormatError):
            matrix_from_json(dict(good, data=[[1.0], [0, 0], [0, 0], [1, 0]]))
        with pytest.raises(FormatError):
            matrix_from_json(dict(good, data=[[True, 0.0]] + good["data"][1:]))
        with pytest.raises(FormatError):
            matrix_from_json([1, 2, 3])
        with pytest.raises(FormatError):
            matrix_from_json({"rows": True, "cols": True, "data": [[0.1, 0.0]]})
        with pytest.raises(FormatError):
            matrix_from_json({"rows": 1, "cols": 1, "data": [[10**400, 0.0]]})


class TestTaggedObjects:
    def test_form_round_trip(self):
        t = standard_triple(2)
        obj = json.loads(dumps_canonical(form_to_json(t.omega)))
        jsonschema.validate(obj, schema("matrix.v1.json"))
        back = form_from_json(obj)
        assert back.kind == "antisymmetric"
        assert np.array_equal(back.matrix, t.omega.matrix)

    def test_form_kind_required(self):
        obj = form_to_json(standard_triple(1).g)
        del obj["kind"]
        with pytest.raises(FormatError):
            form_from_json(obj)
        with pytest.raises(FormatError):
            form_from_json(dict(obj, kind="hermitian"))

    def test_form_must_be_real(self):
        obj = matrix_to_json(np.eye(2) * (1 + 1j))
        obj["kind"] = "symmetric"
        with pytest.raises(FormatError):
            form_from_json(obj)

    def test_structure_round_trip(self):
        t = standard_triple(2)
        obj = structure_to_json(t.J)
        assert obj["kind"] == "complex_structure"
        assert np.array_equal(structure_from_json(obj).matrix, t.J.matrix)
        with pytest.raises(FormatError):
            structure_from_json(dict(obj, kind="symmetric"))

    def test_triple_round_trip(self):
        t = standard_triple(3)
        obj = json.loads(dumps_canonical(triple_to_json(t)))
        jsonschema.validate(obj, schema("triple.v1.json"))
        back = triple_from_json(obj)
        assert np.array_equal(back.g.matrix, t.g.matrix)
        assert np.array_equal(back.Jmat, t.Jmat)
        assert np.array_equal(back.omega.matrix, t.omega.matrix)

    def test_triple_unknown_key_rejected(self):
        obj = triple_to_json(standard_triple(1))
        obj["note"] = "hi"
        with pytest.raises(FormatError):
            triple_from_json(obj)


class TestFramesAndPoints:
    def test_frame_round_trip(self):
        F = Frame(np.eye(4)[:, :2])
        back = frame_from_json(frame_to_json(F))
        assert back.ambient_dim == 4 and back.rank == 2
        assert np.array_equal(back.matrix, F.matrix)

    def test_frame_ambient_mismatch(self):
        obj = frame_to_json(Frame(np.eye(4)[:, :2]))
        obj["ambient_dim"] = 6
        with pytest.raises(DimensionMismatch):
            frame_from_json(obj)

    def test_disk_point_round_trip(self):
        p = SiegelPoint(np.array([[0.25 + 0.1j]]))
        obj = disk_point_to_json(p)
        assert obj["model"] == "disk"
        assert np.array_equal(disk_point_from_json(obj).Z, p.Z)

    def test_halfspace_point_round_trip(self):
        p = UpperHalfPoint(np.array([[0.5 + 2.0j]]))
        obj = disk_point_to_json(p)
        assert obj["model"] == "halfspace"
        assert isinstance(disk_point_from_json(obj), UpperHalfPoint)

    def test_model_tag_enforced(self):
        obj = disk_point_to_json(SiegelPoint(np.zeros((1, 1))))
        with pytest.raises(FormatError):
            disk_point_from_json(dict(obj, model="ball"))
        with pytest.raises(FormatError):
            disk_point_to_json(np.zeros((1, 1)))

    def test_chart_index_round_trip(self):
        S = ChartIndex.of((3, 1))
        assert chart_index_to_json(S) == [1, 3]
        assert chart_index_from_json([1, 3]).indices == (1, 3)

    def test_chart_index_rejections(self):
        with pytest.raises(FormatError):
            chart_index_from_json([1, "2"])
        with pytest.raises(FormatError):
            chart_index_from_json([True])
        with pytest.raises(FormatError):
            chart_index_from_json({"indices": [1]})
