"""Seeded random instances for scripted verification runs.

Every generator takes an explicit :class:`numpy.random.Generator`, so a
recorded 64-bit seed reproduces an instance bit-for-bit.  The JSON-level
factory :func:`generate_input` is what ``report-suite`` scenario configs
use; the matrix-level helpers are shared with the property tests.
"""

from __future__ import annotations

import math

import numpy as np

from . import serialize as se
from .errors import FormatError
from .linalg import op_norm
from .polarization import standard_split
from .siegel import BlockSymplectic, SiegelPoint, disk_to_halfspace, sp_from_siegel_point
from .triples import CompatibleTriple, ComplexStructure, pullback_triple, standard_triple

__all__ = [
    "random_orthogonal",
    "random_unitary",
    "random_invertible",
    "random_contraction",
    "random_symplectic",
    "generate_input",
]


# The [13/13] Pade approximant of exp and the 1-norm up to which it is
# accurate to double precision: Higham, "The scaling and squaring method
# for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26
# (2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring: ``exp(A) = r(A / 2^s)^(2^s)``
    with ``r`` the [13/13] Pade approximant and ``s`` the least power that
    brings the 1-norm under ``_THETA13``."""
    norm = float(np.linalg.norm(A, 1))
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    A = A / 2.0**s
    b = _PADE13
    ident = np.eye(A.shape[0], dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like real orthogonal matrix via the exponential of a skew matrix."""
    A = rng.standard_normal((n, n))
    return _expm(A - A.T)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _expm(0.5 * (A - A.conj().T))


def random_invertible(n: int, rng: np.random.Generator) -> np.ndarray:
    """Well-conditioned real invertible matrix (exponential of a scaled one)."""
    return _expm(0.4 * rng.standard_normal((n, n)))


def random_contraction(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random complex symmetric matrix with operator norm below 0.85."""
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = 0.5 * (S + S.T)
    radius = 0.85 * rng.uniform(0.2, 1.0)
    return radius * S / max(1.0, op_norm(S) / 0.999)


def random_symplectic(n: int, rng: np.random.Generator) -> BlockSymplectic:
    """Block element through the disk: point stabilizer times a translation."""
    u = sp_from_siegel_point(SiegelPoint(random_contraction(n, rng)))
    return u.compose(BlockSymplectic.from_unitary(random_unitary(n, rng)))


def _pullback(n: int, rng: np.random.Generator) -> CompatibleTriple:
    return pullback_triple(random_invertible(2 * n, rng), standard_triple(n))


def generate_input(spec: dict, rng: np.random.Generator) -> dict:
    """Build a verb input object from a scenario ``generate`` block.

    The block names a recipe (``make``) plus its size parameters; the
    result is an ordinary JSON input object, so generated scenarios pass
    through exactly the same parsing path as hand-written ones.
    """
    if not isinstance(spec, dict) or "make" not in spec:
        raise FormatError("generate block must be an object with a 'make' key")
    make = spec.get("make")
    known = {
        "standard_triple",
        "pullback_triple",
        "partial_triple",
        "negated_structure",
        "siegel_point",
        "halfspace_point",
        "symplectic_action",
        "orthogonal_subspace",
    }
    if make not in known:
        raise FormatError(f"unknown generate recipe {make!r}")
    extra = set(spec) - {"make", "n", "omit"}
    if extra:
        raise FormatError(f"unknown generate keys {sorted(extra)}")
    n = spec.get("n", 4)
    if not isinstance(n, int) or n < 1:
        raise FormatError(f"generate size n must be a positive integer, got {n!r}")

    if make == "standard_triple":
        return se.triple_to_json(standard_triple(n))
    if make == "pullback_triple":
        return se.triple_to_json(_pullback(n, rng))
    if make == "partial_triple":
        omit = spec.get("omit")
        if omit not in ("g", "J", "omega"):
            raise FormatError(f"omit must be one of g/J/omega, got {omit!r}")
        obj = se.triple_to_json(_pullback(n, rng))
        del obj[omit]
        return obj
    if make == "negated_structure":
        t = _pullback(n, rng)
        return {
            "J": se.structure_to_json(ComplexStructure(-t.Jmat)),
            "omega": se.form_to_json(t.omega),
        }
    if make == "siegel_point":
        p = SiegelPoint(random_contraction(n, rng))
        return se.disk_point_to_json(p)
    if make == "halfspace_point":
        p = disk_to_halfspace(SiegelPoint(random_contraction(n, rng)))
        return se.disk_point_to_json(p)
    if make == "symplectic_action":
        u = random_symplectic(n, rng)
        p = SiegelPoint(random_contraction(n, rng))
        return {
            "a": se.matrix_to_json(u.a),
            "b": se.matrix_to_json(u.b),
            "Z": se.disk_point_to_json(p),
        }
    # orthogonal_subspace: a rotated standard polarization of R^2n.
    w = random_orthogonal(2 * n, rng) @ standard_split(n).lplus
    return {
        "frame": {**se.matrix_to_json(w), "ambient_dim": 2 * n},
    }
