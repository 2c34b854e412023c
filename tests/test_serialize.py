"""Wire-format tests: canonical emission, exact round-trips, strict readers."""

import json
import math
import re
import subprocess
import sys
import tracemalloc
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, strategies as st

from polargrass import cli
from polargrass.circle import diffeo_from_spec, grunsky
from polargrass.errors import DimensionMismatch, FormatError
from polargrass.linalg import Frame
from polargrass.orthograss import ChartIndex
from polargrass import serialize
from polargrass.serialize import (
    _entry,
    chart_index_from_json,
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

    def test_emitted_bytes_pinned(self):
        # the batch's text, pieces and all, as the per-number writer made it
        M = np.empty(6, dtype=complex)
        M.real = [0.1, -0.0, 1e-300, 3.0, 5e-324, -2.5e10]
        M.imag = [2.0, 1 / 3, -0.0, -0.5, 1e308, 7.0]
        text = dumps_canonical({"m": matrix_to_json(M.reshape(2, 3)), "n": [[0.5, 1.5]]})
        assert text == (
            '{"m":{"cols":3,"data":[[0.10000000000000001,2],[-0,0.33333333333333331],'
            '[1e-300,-0],[3,-0.5],[4.9406564584124654e-324,1e+308],[-25000000000,7]],'
            '"rows":2},"n":[[0.5,1.5]]}\n'
        )

    def test_matrix_data_is_the_per_entry_list(self):
        # the vectorized reader of the array keeps every sign and subnormal
        M = edge_matrix(4, 3)
        for arr in (M, M.T, np.asfortranarray(M), np.arange(6).reshape(2, 3)):
            data = matrix_to_json(arr)["data"]
            ref = [[float(z.real), float(z.imag)] for z in np.asarray(arr, complex).ravel()]
            assert repr(data) == repr(ref)
            assert all(type(x) is float for pair in data for x in pair)


def pairs_reference(pairs) -> str:
    """``"[%.17g,%.17g]" %`` on every row, as the list path writes it."""
    flat = np.asarray(pairs, dtype=np.float64).reshape(-1)
    return "[" + ",".join(["[%.17g,%.17g]"] * (flat.size // 2)) % tuple(flat.tolist()) + "]"


def array_route(pairs) -> str:
    """The array route's text, whatever the size."""
    flat = np.ascontiguousarray(pairs, dtype=np.float64).reshape(-1)
    return "".join(serialize._array_pairs(flat))


def neighbours(x: float) -> list:
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def as_pairs(values) -> np.ndarray:
    """``values`` and their negatives, as a ``(k, 2)`` array."""
    flat = np.array([float(x) for x in values], dtype=np.float64)
    return np.concatenate([flat, -flat]).reshape(-1, 2)


#: The maps of the grunsky benchmark sweep, each at its largest cutoff.
SWEEP_MAPS = [
    ({"kind": "rotation", "delta": 2.1}, 256),
    ({"kind": "mobius", "a": [0.06, -0.08]}, 96),
    ({"kind": "fourier_flow", "coeffs": [[2, 0.15]]}, 128),
    ({"kind": "fourier_flow", "coeffs": [[2, 0.3]]}, 64),
    ({"kind": "fourier_flow", "coeffs": [[3, 0.1], [1, 0.2]]}, 64),
]


class TestArrayRoute:
    """Large matrices are written in numpy; every byte must be that of ``%``."""

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=40))
    def test_any_pairs_match_percent_formatting(self, pairs):
        assert array_route(pairs) == pairs_reference(pairs)

    def test_powers_of_ten_and_their_neighbours(self):
        # 1e-7 is a trap: log10 gives -7, but the double lies below 1e-7
        values = [v for e in range(-308, 309) for v in neighbours(float(f"1e{e}"))]
        assert "9.9999999999999995e-08" in array_route(as_pairs(values))
        assert array_route(as_pairs(values)) == pairs_reference(as_pairs(values))

    def test_edges_of_the_double_range(self):
        tiny = 5e-324
        values = [0.0, tiny, 2 * tiny, 3 * tiny, 1e-320, 2.2250738585072009e-308,
                  *neighbours(2.2250738585072014e-308), np.nextafter(1.7976931348623157e308, 0),
                  1.7976931348623157e308,
                  *neighbours(1e16), *neighbours(1e17), 9.9999999999999999e16, 0.1, 0.5, 1.0,
                  9.5, 10.0, 99.5, 1e-4, 1e-5, 1.5e-5, 123456.789]
        values += [float(2**53 + i) for i in range(-4, 5)]
        values += [float(n) for n in neighbours(2.0**64)] + [float(2**64 + 2**12)]
        assert array_route(as_pairs(values)) == pairs_reference(as_pairs(values))
        assert array_route([[-0.0, 0.0]]) == "[[-0,0]]"

    def test_prescale_switches_and_range_ends(self):
        # decades from _PRESCALE_K up and from -_PRESCALE_K down are prescaled
        # by a power of two: the switches lie at 10^K and 10^(1 - K)
        top = 1.7976931348623157e308
        values = [5e-324, *neighbours(2.2250738585072014e-308), np.nextafter(top, 0), top]
        switches = [10.0**serialize._PRESCALE_K, 10.0 ** (1 - serialize._PRESCALE_K)]
        for switch in switches:
            e = math.floor(math.log2(switch))
            values += [v for p in range(e - 1, e + 3) for v in neighbours(2.0**p)]
        assert serialize._digits(as_pairs(values).reshape(-1))[0].all()  # none through %
        # a double next to a power of ten may take the % route, if log10 rounds across it
        values += [v for switch in switches for v in neighbours(switch)]
        assert array_route(as_pairs(values)) == pairs_reference(as_pairs(values))

    @pytest.mark.parametrize("spec, N", SWEEP_MAPS, ids=[f"{s['kind']}-{N}" for s, N in SWEEP_MAPS])
    def test_no_entry_of_a_sweep_point_falls_back(self, spec, N):
        pairs = serialize._matrix(grunsky(diffeo_from_spec(spec), N).Z)["data"]
        assert serialize._digits(pairs.reshape(-1))[0].all()

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(14).integers(0, 2**64, size=10**6, dtype=np.uint64)
        flat = bits.view(np.float64)
        flat = flat[np.isfinite(flat)]
        pairs = flat[: flat.size // 2 * 2].reshape(-1, 2)
        assert array_route(pairs) == pairs_reference(pairs)

    @pytest.mark.parametrize("spec, N", SWEEP_MAPS, ids=[f"{s['kind']}-{N}" for s, N in SWEEP_MAPS])
    def test_grunsky_points_of_the_sweep(self, spec, N):
        pairs = serialize._matrix(grunsky(diffeo_from_spec(spec), N).Z)["data"]
        assert pairs.size >= serialize.ARRAY_ROUTE_MIN
        text = dumps_canonical({"data": pairs})
        assert text == '{"data":' + pairs_reference(pairs) + "}\n"

    @pytest.mark.parametrize("off", [-1, 1])
    def test_a_decade_one_off_is_caught(self, monkeypatch, rng, off):
        # one too low, exact powers of ten round to 1e17 and roll over
        values = [10.0**e for e in range(23)] + [1e-7, 0.3, 7.0, 99.5, 5e-324]
        pairs = np.concatenate([as_pairs(values), rng.normal(size=(500, 2)) * 1e-3])
        expected = pairs_reference(pairs)
        decade = serialize._decade
        monkeypatch.setattr(serialize, "_decade", lambda ax: decade(ax) + off)
        assert array_route(pairs) == expected

    def test_every_entry_through_the_fallback(self, monkeypatch, rng):
        # a tie budget of 1/2 decides nothing, as where longdouble is a double
        pairs = np.concatenate([rng.normal(size=(600, 2)) * 10.0 ** rng.integers(-30, 30, (600, 1)),
                                as_pairs([0.0, 1e-7, 5e-324, 12.5, 1e300])])
        expected = pairs_reference(pairs)
        monkeypatch.setattr(serialize, "_DELTA", 0.5)
        assert array_route(pairs) == expected

    @pytest.mark.parametrize("size", [2, serialize.ARRAY_ROUTE_MIN])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_is_named(self, size, bad):
        pairs = np.full((size // 2, 2), 0.25)
        pairs[-1, 0] = bad
        with pytest.raises(FormatError, match=f"non-finite number {bad!r} is not serializable"):
            dumps_canonical({"data": pairs})

    def test_other_arrays_are_not_serializable(self):
        for arr in (np.zeros((2, 3)), np.zeros((4, 2), dtype=np.float32), np.zeros(4)):
            with pytest.raises(FormatError, match="cannot serialize ndarray"):
                dumps_canonical(arr)

    def test_list_and_array_write_the_same_matrix(self, rng):
        M = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
        assert dumps_canonical(matrix_to_json(M)) == dumps_canonical(serialize._matrix(M))

    def test_large_report_is_emitted_in_bounded_memory(self):
        # as lists of pairs, this report's emit peaked at 14.8 MB of traced memory
        tracemalloc.start()
        try:
            report, code = cli.run_verb(
                "grunsky", {"diffeo": {"kind": "rotation", "delta": 0.7}, "cutoff": 256},
                cli.Options())
            tracemalloc.reset_peak()
            text = dumps_canonical(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(text) > 3_000_000
        assert peak < 10_000_000


COLD_SCRIPT = """
import json
from polargrass import cli, serialize
built = [serialize._tables.cache_info().currsize]
for N in (8, 64):
    report, _ = cli.run_verb(
        "grunsky", {"diffeo": {"kind": "rotation", "delta": 0.3}, "cutoff": N}, cli.Options())
    serialize.dumps_canonical(report)
    built.append(serialize._tables.cache_info().currsize)
print(json.dumps(built))
"""


def test_small_reports_never_build_the_tables():
    # a fresh interpreter: importing the CLI and a report below the size
    # switch leave the tables unbuilt; a report above it builds them
    proc = subprocess.run([sys.executable, "-c", COLD_SCRIPT], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0, 1]


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


def per_entry(data) -> np.ndarray:
    """The reader's reference: every entry through ``_entry`` on its own."""
    return np.array([_entry(p) for p in data], dtype=np.complex128)


def reader_outcome(read, data):
    """The entries' bits, or the FormatError message, of one reader."""
    try:
        return read(data).ravel().view(np.int64).tolist()
    except FormatError as exc:
        return str(exc)


def one_column(data):
    return matrix_from_json({"rows": len(data), "cols": 1, "data": data})


NUMBERS = st.one_of(
    st.floats(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**1030),
    st.integers(min_value=-(2**1030), max_value=-(2**63) + 2),
    st.sampled_from([-0.0, 0.0, float("nan"), 2**1024 - 2**970 - 1, 2**1024 - 2**970]),
)


class TestMatrixReader:
    """Plain ``[re, im]`` lists of ints and floats are read in one conversion;
    the per-entry loop is the reference for values and for error messages."""

    @given(st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=1, max_size=12))
    def test_one_pass_agrees_with_per_entry(self, data):
        assert reader_outcome(one_column, data) == reader_outcome(per_entry, data)

    def test_plain_pairs_skip_the_loop(self, monkeypatch):
        data = [[1, 2**64 + 1], [-0.0, float("nan")], [0.5, -(2**70)]]
        expected = reader_outcome(per_entry, data)

        def refused(pair):
            raise AssertionError("per-entry loop ran on plain pairs")

        monkeypatch.setattr(serialize, "_entry", refused)
        assert reader_outcome(one_column, data) == expected

    @pytest.mark.parametrize(
        "bad",
        [[True, 0.0], [0.0, False], [0.5, "x"], [0.5], [0.5, 1.0, 2.0], (0.5, 1.0),
         [10**400, 0.0], [0.0, -(10**400)], "x", None],
        ids=["bool-re", "bool-im", "str", "short", "long", "tuple", "huge-re",
             "huge-im", "string", "null"],
    )
    def test_rejections_match_per_entry(self, bad):
        data = [[0.5, 1.5], bad, [2.5, 3.5]]
        with pytest.raises(FormatError) as expected:
            per_entry(data)
        with pytest.raises(FormatError) as got:
            one_column(data)
        assert str(got.value) == str(expected.value)

    def test_subclass_entries_take_the_loop(self):
        data = [[np.float64(0.25), 1], [0.5, np.float64(-0.0)]]
        assert reader_outcome(one_column, data) == reader_outcome(per_entry, data)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
    def test_a_part_that_is_not_finite_is_refused(self, bad, part):
        # a NaN imaginary part of a real form was read, then dropped as zero
        obj = form_to_json(standard_triple(1).g)
        obj["data"][1][part] = bad
        with pytest.raises(FormatError, match="each \\[re, im\\] part must be a finite number"):
            form_from_json(json.loads(json.dumps(obj)))


class TestReaders:
    """``integer`` and ``number``: the one check of each rule for values read
    from outside."""

    @pytest.mark.parametrize(
        "value", [True, False, 2.0, -0.0, float("nan"), float("inf"), -float("inf"), "3", None, [3]]
    )
    def test_integer_refuses_what_is_not_an_integer(self, value):
        with pytest.raises(FormatError, match=r"^size must be an integer, got "):
            serialize.integer(value, "size")

    @pytest.mark.parametrize("value", [0, -(10**400), 10**400, 2**64],
                             ids=["0", "-10**400", "10**400", "2**64"])
    def test_integer_takes_any_integer_without_bounds(self, value):
        assert serialize.integer(value, "size") == value

    @pytest.mark.parametrize(
        "least, most, good, bad, rule",
        [
            (0, None, [0, 10**400], [-1, -(10**400)], "a non-negative integer"),
            (1, None, [1, 2], [0, -1], "a positive integer"),
            (3, None, [3], [2], "an integer >= 3"),
            (1, 64, [1, 64], [0, 65, 10**400], "a positive integer at most 64"),
            (None, 5, [-(10**400), 5], [6], "an integer at most 5"),
        ],
        ids=["least-0", "least-1", "least-3", "least-1-most-64", "most-5"],
    )
    def test_integer_bounds(self, least, most, good, bad, rule):
        for value in good:
            assert serialize.integer(value, "size", least, most) == value
        for value in bad + [True, 2.0]:
            with pytest.raises(FormatError, match=f"^size must be {rule}, got "):
                serialize.integer(value, "size", least, most)

    @pytest.mark.parametrize(
        "value, expected",
        [(2, 2.0), (-3, -3.0), (0.25, 0.25), (2**1024 - 2**970 - 1, sys.float_info.max),
         (-(2**1024 - 2**970 - 1), -sys.float_info.max), (5e-324, 5e-324)],
        ids=["2", "-3", "0.25", "largest-int", "-largest-int", "5e-324"],
    )
    def test_number_is_the_double(self, value, expected):
        got = serialize.number(value, "tol")
        assert type(got) is float and got == expected

    def test_number_keeps_the_sign_of_zero(self):
        assert math.copysign(1.0, serialize.number(-0.0, "tol")) == -1.0

    @pytest.mark.parametrize(
        "value",
        [True, False, 10**400, -(10**400), 2**1024 - 2**970, float("nan"), float("inf"),
         -float("inf"), "1", None, [1.0]],
        ids=["true", "false", "10**400", "-10**400", "rounds-to-inf", "nan", "inf", "-inf",
             "string", "null", "list"],
    )
    def test_number_refuses_what_is_not_a_finite_double(self, value):
        with pytest.raises(FormatError, match=r"^tol must be a finite number, got "):
            serialize.number(value, "tol")

    def test_json_literals_that_are_not_finite_are_refused(self):
        for text in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(FormatError):
                serialize.number(json.loads(text), "tol")

    @pytest.mark.parametrize(
        "raw",
        [b"[" * 100000 + b"]" * 100000, b'{"tau": [0.5, 0.5\xff]}',
         b'{"tau": [' + b"9" * 5000 + b', 1.0]}'],
        ids=["deep", "not-utf-8", "5000-digits"],
    )
    def test_every_decode_failure_is_a_format_error(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))} is not valid JSON: "):
            load_json(path)


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
        assert list(S.indices) == [1, 3]
        assert chart_index_from_json([1, 3]).indices == (1, 3)

    def test_chart_index_rejections(self):
        with pytest.raises(FormatError):
            chart_index_from_json([1, "2"])
        with pytest.raises(FormatError):
            chart_index_from_json([True])
        with pytest.raises(FormatError):
            chart_index_from_json({"indices": [1]})
