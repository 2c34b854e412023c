"""JSON interchange for matrices, forms, frames and disk points.

All matrix-valued objects share one wire format,

    {"rows": R, "cols": C, "data": [[re, im], ...]}

with ``data`` row-major and every entry an explicit ``[re, im]`` pair.
Forms and complex structures add a ``"kind"`` tag, frames an
``"ambient_dim"``, disk/half-space points a ``"model"`` tag, and chart
indices are plain sorted integer lists.  :func:`integer` and :func:`number`
are the one check of every integer and number read from outside.

Output goes through :func:`dumps_canonical`, which emits floats with 17
significant digits (enough to round-trip any double exactly) and sorts
object keys, so identical data always produces identical bytes.  The
stdlib encoder is not used for writing because it offers no control over
float formatting; reading uses :func:`json.loads` as usual.

A matrix's ``data`` may also be given as the float64 ``(k, 2)`` array of its
pairs, as the CLI's reports carry it; its text is the same.  Large arrays
are written in numpy (:func:`_array_pairs`), the rest by ``%``.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, FormatError
from .linalg import Frame
from .siegel import SiegelPoint, UpperHalfPoint
from .triples import BilinearForm, CompatibleTriple, ComplexStructure

if TYPE_CHECKING:
    from .orthograss import ChartIndex

__all__ = [
    "integer",
    "number",
    "dumps_canonical",
    "load_json",
    "save_json",
    "matrix_to_json",
    "matrix_from_json",
    "form_to_json",
    "form_from_json",
    "structure_to_json",
    "structure_from_json",
    "triple_to_json",
    "triple_from_json",
    "frame_to_json",
    "frame_from_json",
    "disk_point_to_json",
    "disk_point_from_json",
    "chart_index_from_json",
]

_FORM_KINDS = ("symmetric", "antisymmetric")


# ---------------------------------------------------------------------------
# canonical writing

_PAIR = "[%.17g,%.17g]"

#: Matrices with fewer doubles than this are written by ``%`` alone.  Measured
#: on a 2-vCPU x86-64 machine with the tables built, ``%`` against the array
#: route: 0.097/0.151 ms at 128 doubles, 0.154/0.175 ms at 192, 0.196/0.161 ms
#: at 256 and 0.228/0.139 ms at 512.  A process that writes a matrix this
#: large builds the tables once, in about 3 ms.
ARRAY_ROUTE_MIN = 256

#: Doubles per block of the array route, which bounds its scratch memory.
_BLOCK = 16384

#: Decimal exponents ``floor(log10 |x|)`` of the nonzero finite doubles.
_K_MIN, _K_MAX = -324, 308

#: Entries of decade ``k >= _PRESCALE_K`` are scaled by ``2^-_PRESCALE`` and
#: those of ``k <= -_PRESCALE_K`` by ``2^_PRESCALE`` (their powers of ten the
#: other way), so that every operand of Dekker's product stays in
#: ``[2^-1022, 2^996)``, where it is exact.
_PRESCALE_K, _PRESCALE = 270, 192

#: Veltkamp's splitter: ``c = _SPLIT x`` and ``c - (c - x)`` keep the high
#: 26 bits of a double ``x`` (Dekker, Numer. Math. 18, 1971).
_SPLIT = 2.0**27 + 1

#: Bound on the error of ``v = |x| 10^(16 - k)`` as ``hi + lo`` with unit
#: roundoff u = 2^-53: the table's power and rest sum to within u^2 of the
#: power, the product of ``|x|`` and the rest and the sum into ``lo`` add at
#: most 3u^2 v, and splitting off the carry is exact; 4u^2 v is 4.9e-15 on
#: v <= 1e17 + 1, which 1e-14 covers.
_DELTA = 1e-14


def _word(text: bytes) -> int:
    """``text`` (at most 8 bytes) as a little-endian word, NUL-padded."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


#: The separator after each entry, in the top three bytes of its last word:
#: ``,`` after the real part, ``],[`` after the imaginary part.
_SEPARATORS = np.array([_word(b"\0" * 5 + b","), _word(b"\0" * 5 + b"],[")], dtype="<u8")


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``x`` into two doubles of at most 26 significant
    bits that sum to it, so that their pairwise products are exact."""
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


@functools.cache
def _tables():
    """The array route's tables, built on first use.

    ``powers[:, K_MAX - k]`` holds, for decade k and its prescale ``2^s``:
    ``2^s``; ``p = 10^(16 - k) 2^-s`` correctly rounded; the two
    :func:`_halves` of p; and the rest ``10^(16 - k) 2^-s - p`` correctly
    rounded, each from exact integers.  ``groups`` holds the 4-digit ASCII
    groups, then the same with trailing zeros as NUL; ``heads`` the sign and
    leading ``0.000`` by ``(negative, length)``; ``exponents`` the ``e+XX``
    text by ``k - K_MIN + 1``, with index 0 for none.
    """
    pow10 = [1]
    for _ in range(16 - _K_MIN):
        pow10.append(10 * pow10[-1])
    rows = []
    for k in range(_K_MAX, _K_MIN - 1, -1):
        s = _PRESCALE if k <= -_PRESCALE_K else -_PRESCALE if k >= _PRESCALE_K else 0
        e = 16 - k
        num, den = pow10[max(e, 0)] << max(-s, 0), pow10[max(-e, 0)] << max(s, 0)
        p = num / den  # int division rounds correctly
        m, q = p.as_integer_ratio()
        rows.append((2.0**s, p, (num * q - m * den) / (den * q)))
    scale, p, rest = np.array(rows).T
    powers = np.stack([scale, p, *_halves(p), rest])
    digits = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))).copy()
    kept = np.logical_or.accumulate(digits[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    groups = np.concatenate([digits, digits * kept]).view("<u4").reshape(-1)
    heads = np.array([_word(sign + b"0.000"[:n]) for sign in (b"", b"-") for n in range(6)],
                     dtype="<u8")
    exponents = np.array([0] + [_word(b"e%+03d" % k) for k in range(_K_MIN, _K_MAX + 2)],
                         dtype="<u8")
    return powers, groups, heads, exponents


def _decade(ax: np.ndarray) -> np.ndarray:
    """``floor(log10 ax)``, ``-inf`` at zero.  ``log10`` may round across an
    integer near a power of ten; the range checks of :func:`_array_block`
    catch a decade that is one off either way."""
    with np.errstate(divide="ignore"):
        return np.floor(np.log10(ax))


def _digits(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ok, digits, k)`` for finite doubles: where ``ok``, ``%.17g`` writes
    ``x`` as the 17 digits ``digits`` (int64) with decimal exponent ``k``.

    With ``k = floor(log10 |x|)`` and ``v = |x| 10^(16 - k)``, the digits are
    the integer nearest v unless v lies within ``_DELTA`` of a tie, and ``v >=
    1e16`` and digits ``<= 1e17`` confirm k (``1e17`` rolls over to ``1e16``
    at ``k + 1``).  v is a double-double ``hi + lo``: Dekker's exact product
    of the prescaled ``|x|`` and the table's power, plus the power's rest
    times ``|x|``.  Since ``hi >= 2^53`` is an integer, the digits are ``hi``
    plus the integer nearest ``lo``.  A zero has digits 0 at k = 0.  Not
    ``ok`` are the entries near a tie, any whose decade is not confirmed, and
    those ``%.17g`` writes with digits before the point (``10 <= |x| < 1e17``).
    """
    powers = _tables()[0]
    ax = np.abs(flat)
    k = _decade(ax)
    ok = (k >= _K_MIN) & (k <= _K_MAX)
    scale, p, p1, p2, rest = np.take(powers, np.where(ok, _K_MAX - k, 0).astype(np.intp), axis=1)
    a = ax * scale  # exact
    hi = a * p
    a1, a2 = _halves(a)
    lo = ((a1 * p1 - hi) + a1 * p2 + a2 * p1) + a2 * p2 + a * rest
    carry = np.rint(lo)
    frac = lo - carry  # exact: v is digits + frac
    digits = np.where(ok, hi, 0.0).astype(np.int64) + carry.astype(np.int64)
    zero = ax == 0.0
    ok &= (digits > 10**16) | ((digits == 10**16) & (frac >= 0.0))
    ok &= digits <= 10**17
    ok = (ok | zero) & (np.abs(frac) < 0.5 - _DELTA)
    roll = digits == 10**17
    digits[roll] = 10**16
    k = np.where(ok & ~zero, k, 0).astype(np.int64) + roll
    ok &= (k < 1) | (k > 16)
    return ok, digits, k


def _array_block(flat: np.ndarray) -> str:
    """The text of an even number of finite doubles ``re, im, re, im, ...``,
    every pair's ``[`` left to the text before it and its ``],[`` written.

    An entry that :func:`_digits` decides is laid out in four 8-byte words,
    NUL where ``%.17g`` writes nothing: sign, leading ``0.000``, first digit
    and point | the 16 further digits | exponent and separator.  The rest are
    written by ``%``.
    """
    _, groups, heads, exponents = _tables()
    n = flat.size
    ok, digits, k = _digits(flat)
    # four 4-digit groups, each NUL-stripped when the groups after it are zero
    quads = np.empty((4, n), np.int64)
    lead = digits
    for j in (3, 2, 1, 0):
        high = lead // 10000
        quads[j] = lead - high * 10000
        lead = high
    later_zero = np.full(n, 10000)
    for j in (3, 2, 1, 0):
        quads[j] += later_zero
        later_zero *= quads[j] == 10000
    # k in [1, 16] has fallen back: sci marks where an exponent is written
    sci = (k < -4) | (k > 0)
    point = sci | (k == 0)
    head = heads[np.where(point, 0, 1 - k) + 6 * np.signbit(flat)]
    head |= (lead.astype("<u8") + ord("0")) << 48
    head |= (point & (later_zero == 0)).astype("<u8") * (ord(".") << 56)
    words = np.empty((n, 4), "<u8")
    words[:, 0] = head
    words.view("<u4")[:, 2:6] = groups[quads].T
    words[:, 3] = exponents[np.where(sci, k - _K_MIN + 1, 0)]
    words[:, 3].reshape(-1, 2)[...] |= _SEPARATORS
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        text = ("%-24.17g" * fallback.size % tuple(flat[fallback].tolist())).encode("ascii")
        chars = words.view(np.uint8)
        chars[fallback, :24] = np.frombuffer(text.replace(b" ", b"\0"), np.uint8).reshape(-1, 24)
        chars[fallback, 24:29] = 0  # up to the separator
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _array_pairs(flat: np.ndarray) -> list:
    """Pieces of the ``[[re,im],...]`` text of ``flat`` (finite, even size,
    not empty), one block at a time."""
    pieces = ["[["]
    pieces += [_array_block(flat[i : i + _BLOCK]) for i in range(0, flat.size, _BLOCK)]
    pieces[-1] = pieces[-1][:-2] + "]"
    return pieces


def _emit_pairs(pairs: np.ndarray, out: list) -> None:
    """Write a float64 ``(k, 2)`` array as ``[[re,im],...]``, with the bytes
    ``"[%.17g,%.17g]" %`` gives each row; a non-finite entry is named."""
    flat = np.ascontiguousarray(pairs).reshape(-1)
    finite = np.isfinite(flat)
    if not finite.all():
        x = float(flat[np.argmin(finite)])
        raise FormatError(f"non-finite number {x!r} is not serializable")
    if flat.size < ARRAY_ROUTE_MIN:
        out.extend(("[", ",".join([_PAIR] * len(pairs)) % tuple(flat.tolist()), "]"))
    else:
        out.extend(_array_pairs(flat))


def _is_float_pairs(obj) -> bool:
    """Whether ``obj`` is a non-empty list of ``[re, im]`` lists of floats."""
    return (
        type(obj) is list
        and bool(obj)
        and set(map(type, obj)) == {list}
        and set(map(len, obj)) == {2}
        and set(map(type, chain.from_iterable(obj))) == {float}
    )


def _is_pair_array(obj) -> bool:
    """Whether ``obj`` is a float64 ``(k, 2)`` array, as :func:`_matrix` gives."""
    return (
        isinstance(obj, np.ndarray)
        and obj.dtype == np.float64
        and obj.ndim == 2
        and obj.shape[1] == 2
    )


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise FormatError(f"non-finite number {x!r} is not serializable")
        out.append(f"{x:.17g}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif _is_pair_array(obj):
        _emit_pairs(obj, out)
    elif _is_float_pairs(obj):
        _emit_pairs(np.array(obj, dtype=np.float64), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise FormatError(f"object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-digit floats, no spaces."""
    out: list = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def save_json(obj, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_canonical(obj))


def load_json(path):
    """The JSON value in the file at ``path``; FormatError if it cannot be
    read or decoded (invalid JSON or UTF-8, an integer of more digits than
    ``sys.get_int_max_str_digits()``: ValueError; deep nesting: RecursionError)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# object readers/writers


def integer(value, what: str, least: int | None = None, most: int | None = None) -> int:
    """``value`` if it is an integer, not a boolean, in ``[least, most]`` (a
    bound of None is open); else FormatError naming ``what`` and the rule."""
    if isinstance(value, bool) or not isinstance(value, int) or not (
            (least is None or least <= value) and (most is None or value <= most)):
        rule = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer >= {least}")
        if most is not None:
            rule += f" at most {most}"
        raise FormatError(f"{what} must be {rule}, got {value!r}")
    return value


def number(value, what: str) -> float:
    """``value`` as a finite double if it is a number, not a boolean, that
    converts to one (an integer past the double range does not); else
    FormatError naming ``what``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(x := float(value)):
                return x
        except OverflowError:
            pass
    raise FormatError(f"{what} must be a finite number, got {value!r}")


def _check_keys(obj, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"expected a JSON object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise FormatError(f"missing keys {missing}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise FormatError(f"unknown keys {unknown}")


_PART = "each [re, im] part"  # what :func:`number` names in an entry


def _entry(pair) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise FormatError(f"entries must be [re, im] pairs of numbers, got {pair!r}")
    return complex(number(pair[0], _PART), number(pair[1], _PART))


def _matrix(mat) -> dict:
    """The wire object of a matrix, ``data`` as the float64 ``(k, 2)`` array
    of its ``[re, im]`` pairs, which :func:`dumps_canonical` writes as the list."""
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2:
        raise FormatError(f"expected a matrix, got ndim {arr.ndim}")
    return {
        "rows": arr.shape[0],
        "cols": arr.shape[1],
        "data": arr.reshape(-1, 1).view(np.float64),
    }


def matrix_to_json(mat) -> dict:
    out = _matrix(mat)
    out["data"] = out["data"].tolist()
    return out


def matrix_from_json(obj, extra: tuple = ()) -> np.ndarray:
    """Read the wire format back into a complex matrix.

    ``extra`` names tag keys the caller will consume itself (``"kind"``,
    ``"model"``, ...); anything else unknown is rejected.
    """
    _check_keys(obj, ("rows", "cols", "data"), extra)
    rows, cols = integer(obj["rows"], "rows", 1), integer(obj["cols"], "cols", 1)
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FormatError(
            f"data length {len(data) if isinstance(data, list) else '??'} != rows*cols = {rows * cols}"
        )
    return _entries(data).reshape(rows, cols)


def _entries(data: list) -> np.ndarray:
    """The complex entries of a non-empty list of ``[re, im]`` pairs.

    Lists of two plain ints or floats take one conversion, and the first part
    that is not finite is named there; any other entry (a subclass such as
    ``bool``, a string, a short or long pair) and an int beyond the double
    range take the per-entry loop, which names the first bad entry.
    """
    if (
        set(map(type, data)) == {list}
        and set(map(len, data)) == {2}
        and set(map(type, chain.from_iterable(data))) <= {int, float}
    ):
        try:
            parts = np.array(data, dtype=np.float64)
        except OverflowError:
            pass
        else:
            finite = np.isfinite(parts)
            if finite.all():
                return parts.view(np.complex128)[:, 0]
            number(float(parts.flat[np.argmin(finite)]), _PART)  # raises, as _entry would
    return np.array([_entry(p) for p in data], dtype=np.complex128)


def _real_part(mat: np.ndarray, what: str) -> np.ndarray:
    if np.abs(mat.imag).max(initial=0.0) > 0.0:
        raise FormatError(f"{what} must be real (found nonzero imaginary parts)")
    return np.ascontiguousarray(mat.real)


def form_to_json(form: BilinearForm) -> dict:
    out = matrix_to_json(form.matrix)
    out["kind"] = form.kind
    return out


def form_from_json(obj) -> BilinearForm:
    mat = matrix_from_json(obj, extra=("kind",))
    kind = obj.get("kind")
    if kind not in _FORM_KINDS:
        raise FormatError(f"form kind must be one of {_FORM_KINDS}, got {kind!r}")
    return BilinearForm(kind, _real_part(mat, "a bilinear form"))


def structure_to_json(J: ComplexStructure) -> dict:
    out = matrix_to_json(J.matrix)
    out["kind"] = "complex_structure"
    return out


def structure_from_json(obj) -> ComplexStructure:
    mat = matrix_from_json(obj, extra=("kind",))
    if obj.get("kind") != "complex_structure":
        raise FormatError(
            f'complex structures need kind "complex_structure", got {obj.get("kind")!r}'
        )
    return ComplexStructure(_real_part(mat, "a complex structure"))


def triple_to_json(t: CompatibleTriple) -> dict:
    return {
        "g": form_to_json(t.g),
        "J": structure_to_json(t.J),
        "omega": form_to_json(t.omega),
    }


def triple_from_json(obj) -> CompatibleTriple:
    _check_keys(obj, ("g", "J", "omega"))
    return CompatibleTriple(
        form_from_json(obj["g"]),
        structure_from_json(obj["J"]),
        form_from_json(obj["omega"]),
    )


def frame_to_json(frame: Frame) -> dict:
    out = matrix_to_json(frame.matrix)
    out["ambient_dim"] = frame.ambient_dim
    return out


def frame_from_json(obj) -> Frame:
    mat = matrix_from_json(obj, extra=("ambient_dim",))
    ambient = integer(obj.get("ambient_dim"), "ambient_dim")
    if ambient != mat.shape[0]:
        raise DimensionMismatch(
            f"ambient_dim {ambient!r} does not match {mat.shape[0]} rows"
        )
    return Frame(mat)


def disk_point_to_json(p) -> dict:
    if isinstance(p, SiegelPoint):
        model = "disk"
    elif isinstance(p, UpperHalfPoint):
        model = "halfspace"
    else:
        raise FormatError(f"not a disk/half-space point: {type(p).__name__}")
    out = matrix_to_json(p.Z)
    out["model"] = model
    return out


def disk_point_from_json(obj):
    mat = matrix_from_json(obj, extra=("model",))
    model = obj.get("model")
    if model == "disk":
        return SiegelPoint(mat)
    if model == "halfspace":
        return UpperHalfPoint(mat)
    raise FormatError(f'model must be "disk" or "halfspace", got {model!r}')


def chart_index_from_json(obj) -> ChartIndex:
    if not isinstance(obj, list):
        raise FormatError(f"chart index must be a list of integers, got {obj!r}")
    from .orthograss import ChartIndex  # loaded by the chart verbs only; checks each index

    return ChartIndex.of(obj)
