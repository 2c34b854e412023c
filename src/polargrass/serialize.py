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
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, FormatError
from .linalg import Frame
from .orthograss import ChartIndex
from .siegel import SiegelPoint, UpperHalfPoint
from .triples import BilinearForm, CompatibleTriple, ComplexStructure

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
    "chart_index_to_json",
    "chart_index_from_json",
]

_FORM_KINDS = ("symmetric", "antisymmetric")


# ---------------------------------------------------------------------------
# canonical writing


def _is_float_pairs(obj) -> bool:
    """Whether ``obj`` is a non-empty list of ``[re, im]`` lists of floats."""
    return (
        type(obj) is list
        and bool(obj)
        and set(map(type, obj)) == {list}
        and set(map(len, obj)) == {2}
        and set(map(type, chain.from_iterable(obj))) == {float}
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
    elif _is_float_pairs(obj):
        # a matrix's data: one format call for the whole list
        flat = tuple(chain.from_iterable(obj))
        if not all(map(math.isfinite, flat)):
            x = next(x for x in flat if not math.isfinite(x))
            raise FormatError(f"non-finite number {x!r} is not serializable")
        out.extend(("[", ",".join(["[%.17g,%.17g]"] * len(obj)) % flat, "]"))
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


def matrix_to_json(mat) -> dict:
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2:
        raise FormatError(f"expected a matrix, got ndim {arr.ndim}")
    return {
        "rows": arr.shape[0],
        "cols": arr.shape[1],
        "data": arr.reshape(-1, 1).view(np.float64).tolist(),
    }


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


def chart_index_to_json(S: ChartIndex) -> list:
    return list(S.indices)


def chart_index_from_json(obj) -> ChartIndex:
    if not isinstance(obj, list) or not all(
        isinstance(k, int) and not isinstance(k, bool) for k in obj
    ):
        raise FormatError(f"chart index must be a list of integers, got {obj!r}")
    return ChartIndex.of(obj)
