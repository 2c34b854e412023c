"""JSON interchange for matrices, forms, frames and disk points.

All matrix-valued objects share one wire format,

    {"rows": R, "cols": C, "data": [[re, im], ...]}

with ``data`` row-major and every entry an explicit ``[re, im]`` pair.
Forms and complex structures add a ``"kind"`` tag, frames an
``"ambient_dim"``, disk/half-space points a ``"model"`` tag, and chart
indices are plain sorted integer lists.

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
#: on a 2-vCPU x86-64 machine: at 4096 doubles the array route takes 0.9 ms
#: against 2.1 ms for ``%``, but its tables take 2-6 ms to build once, which
#: the small verbs' largest matrices (2048 doubles, a 32x32 complex matrix)
#: would not win back in a one-verb process.
ARRAY_ROUTE_MIN = 4096

#: Doubles per block of the array route, which bounds its scratch memory.
_BLOCK = 16384

#: Decimal exponents ``floor(log10 |x|)`` of the nonzero finite doubles.
_K_MIN, _K_MAX = -324, 308

#: Bound on the error of ``v = |x| 10^(16 - k)`` computed in ``longdouble``
#: with unit roundoff u: the table entry (from an integer of 127 or more bits)
#: and the product are each rounded once, an error of at most
#: (2u + u^2 + 2^-126) v on v <= 1e17 + 1, which the 0.1 % added to 2u 1e17
#: covers for any u >= 2^-113.  Where ``longdouble`` is a plain double this
#: exceeds 1/2 and every entry falls back.
_DELTA = 2.002 * float(np.finfo(np.longdouble).eps) / 2 * 1e17


def _word(text: bytes) -> int:
    """``text`` (at most 8 bytes) as a little-endian word, NUL-padded."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


#: The separator after each entry, in the top three bytes of its last word:
#: ``,`` after the real part, ``],[`` after the imaginary part.
_SEPARATORS = np.array([_word(b"\0" * 5 + b","), _word(b"\0" * 5 + b"],[")], dtype="<u8")


@functools.cache
def _tables():
    """The array route's tables, built on first use.

    ``powers[K_MAX - k]`` is ``10^(16 - k)`` in ``longdouble``, rounded once
    from an exact integer ``n 2^-s`` of 127 or 128 bits; ``groups`` holds the 4-digit
    ASCII groups, then the same with trailing zeros as NUL; ``heads`` the
    sign and leading ``0.000`` by ``(negative, length)``; ``exponents`` the
    ``e+XX`` text by ``k - K_MIN + 1``, with index 0 for none.
    """
    scaled = []
    for e in range(16 - _K_MAX, 16 - _K_MIN + 1):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        s = 127 - num.bit_length() + den.bit_length()  # so that 2^126 < n < 2^128
        n = (num << s) // den if s >= 0 else num // (den << -s)
        scaled.append((n >> 64, n & (2**64 - 1), s))
    hi, lo, s = zip(*scaled)
    s = np.array(s)
    # both halves are exact in longdouble; their sum is the one rounding
    powers = np.ldexp(np.array(hi, np.uint64).astype(np.longdouble), 64 - s) + np.ldexp(
        np.array(lo, np.uint64).astype(np.longdouble), -s
    )
    digits = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
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


def _array_block(flat: np.ndarray) -> str:
    """The text of an even number of finite doubles ``re, im, re, im, ...``,
    every pair's ``[`` left to the text before it and its ``],[`` written.

    Each entry is decided in numpy when its 17 digits are certain: with
    ``k = floor(log10 |x|)`` and ``v = |x| 10^(16 - k)``, the digits are
    ``rint(v)`` unless v lies within ``_DELTA`` of a tie, and ``v >= 1e16``
    and ``rint(v) <= 1e17`` confirm k (``1e17`` rolls over to ``1e16`` at
    ``k + 1``).  It is laid out in four 8-byte words, NUL where ``%.17g``
    writes nothing: sign, leading ``0.000``, first digit and point | the 16
    further digits | exponent and separator.  Zeros, entries near a tie or
    outside the tables, and those ``%.17g`` writes with digits before the
    point (``10 <= |x| < 1e17``) are written by ``%`` instead.
    """
    powers, groups, heads, exponents = _tables()
    n = flat.size
    ax = np.abs(flat)
    k = _decade(ax)
    ok = (k >= _K_MIN) & (k <= _K_MAX)
    v = ax.astype(np.longdouble) * powers[np.where(ok, _K_MAX - k, 0).astype(np.intp)]
    r = np.rint(v)
    ok &= (np.abs(v - r) < 0.5 - _DELTA) & (v >= 1e16) & (r <= 1e17)
    digits = np.where(ok, r, 1e16).astype(np.int64)
    roll = digits == 10**17
    digits[roll] = 10**16
    k = np.where(ok, k, 0).astype(np.int64) + roll
    ok &= (k < 1) | (k > 16)
    # four 4-digit groups, each NUL-stripped when the groups after it are zero
    quads = np.empty((n, 4), np.int64)
    lead = digits
    for j in (3, 2, 1, 0):
        lead, quads[:, j] = np.divmod(lead, 10000)
    later_zero = np.full(n, 10000)
    for j in (3, 2, 1, 0):
        quads[:, j] += later_zero
        later_zero *= quads[:, j] == 10000
    # k in [1, 16] has fallen back: sci marks where an exponent is written
    sci = (k < -4) | (k > 0)
    point = sci | (k == 0)
    head = heads[np.where(point, 0, 1 - k) + 6 * (flat < 0)]
    head |= (lead.astype("<u8") + ord("0")) << 48
    head |= (point & (later_zero == 0)).astype("<u8") * (ord(".") << 56)
    words = np.empty((n, 4), "<u8")
    words[:, 0] = head
    words[:, 1:3] = groups[quads].view("<u8")
    words[:, 3] = exponents[np.where(sci, k - _K_MIN + 1, 0)]
    words[:, 3].reshape(-1, 2)[...] |= _SEPARATORS
    rest = np.flatnonzero(~ok)
    if rest.size:
        text = ("%-24.17g" * rest.size % tuple(flat[rest].tolist())).encode("ascii")
        chars = words.view(np.uint8)
        chars[rest, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)
        chars[rest, 24:29] = 0  # up to the separator
    return words.tobytes().translate(None, b" \0").decode("ascii")  # NULs and %-padding


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# object readers/writers


def _check_keys(obj, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"expected a JSON object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise FormatError(f"missing keys {missing}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise FormatError(f"unknown keys {unknown}")


def _entry(pair) -> complex:
    if (
        not isinstance(pair, list)
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise FormatError(f"entries must be [re, im] pairs of numbers, got {pair!r}")
    try:
        return complex(pair[0], pair[1])
    except OverflowError:
        raise FormatError(f"entry {pair!r} does not fit a double") from None


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
    rows, cols = obj["rows"], obj["cols"]
    if any(isinstance(x, bool) or not isinstance(x, int) or x < 1 for x in (rows, cols)):
        raise FormatError(f"rows/cols must be positive integers, got {rows!r}, {cols!r}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FormatError(
            f"data length {len(data) if isinstance(data, list) else '??'} != rows*cols = {rows * cols}"
        )
    return _entries(data).reshape(rows, cols)


def _entries(data: list) -> np.ndarray:
    """The complex entries of a non-empty list of ``[re, im]`` pairs.

    Lists of two plain ints or floats take one conversion; any other entry
    (a subclass such as ``bool``, a string, a short or long pair) and an int
    beyond the double range take the per-entry loop, which names the first
    bad entry.
    """
    if (
        set(map(type, data)) == {list}
        and set(map(len, data)) == {2}
        and set(map(type, chain.from_iterable(data))) <= {int, float}
    ):
        try:
            return np.array(data, dtype=np.float64).view(np.complex128)[:, 0]
        except OverflowError:
            pass
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
    ambient = obj.get("ambient_dim")
    if isinstance(ambient, bool) or not isinstance(ambient, int):
        raise FormatError(f"ambient_dim must be an integer, got {ambient!r}")
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
