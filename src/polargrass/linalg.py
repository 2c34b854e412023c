"""Shared numerical substrate: norms, definiteness, frames, tolerances.

All matrices are dense complex128 numpy arrays.  Subspaces are carried by
:class:`Frame` objects whose columns are orthonormal for the *standard*
Hermitian pairing; metric-orthonormal bases (needed by the eigensplit
machinery) are handled in :mod:`polargrass.polarization`.

Every invariant is gated by one rule, normwise relative to its operands
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3): a residual
passes when it is at most ``rel * max(1, scale)`` (:func:`within`), a margin
when it is finite and above that (:func:`clears`); both fail for a NaN and
for a non-finite ``scale``.  Their raising forms :func:`check_within` and
:func:`check_clears` return the number they checked, for objects to keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FormatError,
    NonHermitian,
    NotPositiveDefinite,
    RankMismatch,
)

ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """Tolerance ladder used across the package.

    Attributes
    ----------
    eq_tol
        Algebraic identity residuals (default 1e-10).
    spd_tol
        Strict-positivity margins for eigenvalue checks (default 1e-12).
    """

    eq_tol: float = 1e-10
    spd_tol: float = 1e-12

    def __post_init__(self) -> None:
        for field in ("eq_tol", "spd_tol"):
            value = getattr(self, field)
            if not (value > 0.0 and np.isfinite(value)):
                raise FormatError(f"{field} must be positive and finite, got {value!r}")


DEFAULT_TOL = Tolerances()


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Coerce ``a`` to a finite complex128 2-D array.

    Raises
    ------
    FormatError
        If the input is not 2-D, contains non-finite entries, or ``square``
        is requested and the shape is not square.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise FormatError(f"expected a 2-D array, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise FormatError("matrix contains non-finite entries")
    if square and arr.shape[0] != arr.shape[1]:
        raise FormatError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def as_real_matrix(a, square: bool = False) -> np.ndarray:
    """Like :func:`as_matrix` but require an imaginary part of at most 1e-12."""
    arr = as_matrix(a, square=square)
    imag = float(np.abs(arr.imag).max(initial=0.0))
    check_within(imag, 1e-12, 0.0, FormatError, "matrix has a non-negligible imaginary part")
    return arr.real.astype(np.float64)


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(a)))


def op_norm(a) -> float:
    """Operator (spectral) norm, i.e. the largest singular value."""
    arr = np.asarray(a)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.norm(arr, ord=2))


def freeze(arr) -> np.ndarray:
    """A read-only, C-contiguous copy of ``arr``; the caller's array is untouched."""
    out = np.array(arr, order="C")
    out.flags.writeable = False
    return out


def within(dev: float, rel: float, scale: float) -> bool:
    """Whether the residual ``dev`` is at most ``rel * max(1, scale)``, ``scale`` finite."""
    return bool(math.isfinite(scale) and dev <= rel * max(1.0, scale))


def clears(margin: float, rel: float, scale: float) -> bool:
    """Whether ``margin`` is finite and above ``rel * max(1, scale)``, ``scale`` finite."""
    return bool(math.isfinite(scale) and math.isfinite(margin) and margin > rel * max(1.0, scale))


def check_within(dev: float, rel: float, scale: float, error: type, what: str) -> float:
    """``dev`` if it is :func:`within` ``rel`` relative to ``scale``; else raise ``error``."""
    if not within(dev, rel, scale):
        raise error(f"{what} ({dev:.3e})")
    return dev


def check_clears(margin: float, rel: float, scale: float, error: type, what: str) -> float:
    """``margin`` if it :func:`clears` ``rel`` relative to ``scale``; else raise ``error``."""
    if not clears(margin, rel, scale):
        raise error(f"{what} ({margin:.3e})")
    return margin


def symmetry_deviation(Z, sign: float = 1.0) -> float:
    """``||Z - sign Z^T||``: the (anti)symmetry defect of ``Z`` for ``sign = (-)1``."""
    return hs_norm(Z - sign * Z.T)


def check_symmetry(Z, sign: float, rel: float, error: type, what: str) -> float:
    """``symmetry_deviation(Z, sign)``, gated :func:`within` ``rel`` relative to ``||Z||``."""
    return check_within(symmetry_deviation(Z, sign), rel, hs_norm(Z), error, what)


def check_invertible(a, rel: float, error: type, what: str) -> float:
    """``sigma_min(a)``, gated to clear ``rel`` relative to ``sigma_max(a)``, both
    from one SVD; a non-finite value or an SVD that fails counts as singular."""
    try:
        svals = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise error(f"{what} ({exc})") from exc
    smin, smax = (float(svals.min()), float(svals.max())) if svals.size else (0.0, 0.0)
    return check_clears(smin, rel, smax, error, f"{what}: sigma_min")


def right_divide(num, den, rel: float, error: type, what: str) -> np.ndarray:
    """``num @ inv(den)``, after :func:`check_invertible` on ``den``."""
    check_invertible(den, rel, error, what)
    return np.linalg.solve(den.T, num.T).T


def _hermitian_eigh(a, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of ``a``; raises NonHermitian beyond ``eq_tol`` (relative)."""
    arr = as_matrix(a, square=True)
    dev = hs_norm(arr - arr.conj().T)
    check_within(dev, tol.eq_tol, hs_norm(arr), NonHermitian, "Hermitian deviation")
    return np.linalg.eigh(0.5 * (arr + arr.conj().T))


def is_positive_definite(a, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether a Hermitian matrix is positive definite with margin ``spd_tol``.

    Raises
    ------
    NonHermitian
        If ``a`` deviates from Hermitian symmetry beyond ``eq_tol``.
    """
    eigvals, _ = _hermitian_eigh(a, tol)
    return clears(float(eigvals.min()), tol.spd_tol, 0.0)


def min_eig_hermitian(a) -> float:
    arr = as_matrix(a, square=True)
    return float(np.linalg.eigvalsh(0.5 * (arr + arr.conj().T)).min())


def _spd_powers(a, powers: tuple[float, ...], tol: Tolerances) -> tuple[np.ndarray, ...]:
    """``a**p`` for each ``p`` in ``powers`` from one validated ``eigh``."""
    eigvals, eigvecs = _hermitian_eigh(a, tol)
    check_clears(float(eigvals.min()), tol.spd_tol, 0.0, NotPositiveDefinite, "minimum eigenvalue")
    return tuple((eigvecs * (eigvals**p)) @ eigvecs.conj().T for p in powers)


def inverse_sqrt_hermitian(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse square root of a Hermitian positive definite matrix.

    Computed through the eigendecomposition; the result is Hermitian
    positive definite and satisfies ``r @ a @ r = I`` to machine precision
    for well-conditioned input.

    Raises
    ------
    NonHermitian
        If ``a`` is not Hermitian within ``eq_tol``.
    NotPositiveDefinite
        If the smallest eigenvalue does not clear ``spd_tol``.
    """
    return _spd_powers(a, (-0.5,), tol)[0]


def sqrt_hermitian(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian positive definite square root (same validation as the inverse)."""
    return _spd_powers(a, (0.5,), tol)[0]


def sqrt_pair_hermitian(a, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``(sqrt_hermitian(a), inverse_sqrt_hermitian(a))`` from one ``eigh``,
    with the same validation."""
    return _spd_powers(a, (0.5, -0.5), tol)


class Frame:
    """A subspace carrier: a matrix with orthonormal columns.

    Orthonormality is with respect to the standard Hermitian pairing and is
    enforced at construction (deviation at most ``1e-10``).  Use
    :meth:`from_columns` to build a frame from an arbitrary spanning set.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        arr = as_matrix(matrix)
        if arr.shape[1] > arr.shape[0]:
            raise RankMismatch(
                f"rank {arr.shape[1]} exceeds ambient dimension {arr.shape[0]}"
            )
        dev = hs_norm(arr.conj().T @ arr - np.eye(arr.shape[1]))
        check_within(dev, ORTHO_TOL, 0.0, RankMismatch, "columns not orthonormal")
        object.__setattr__(self, "matrix", freeze(arr))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Frame is immutable")

    @classmethod
    def from_columns(cls, columns) -> "Frame":
        """Orthonormalize ``columns`` (QR) and wrap the result.

        Raises
        ------
        RankMismatch
            If the columns are numerically dependent.
        """
        arr = as_matrix(columns)
        q, r = np.linalg.qr(arr)
        diag = np.abs(np.diag(r))
        if arr.shape[1] and not clears(float(diag.min()), 1e-12, float(diag.max())):
            raise RankMismatch("columns are numerically dependent")
        return cls(q)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the column span (standard pairing)."""
        return self.matrix @ self.matrix.conj().T

    def conj(self) -> "Frame":
        """Frame spanning the entrywise-conjugate subspace."""
        return Frame(self.matrix.conj())

    def __repr__(self) -> str:
        return f"Frame(ambient_dim={self.ambient_dim}, rank={self.rank})"


def principal_angle_distance(f1: Frame, f2: Frame) -> float:
    """Gap distance between two subspaces of equal dimension.

    Computed as the operator norm of the difference of orthogonal
    projectors; equals the sine of the largest principal angle.

    Raises
    ------
    RankMismatch
        If the frames have different ambient dimension or rank.
    """
    if f1.ambient_dim != f2.ambient_dim or f1.rank != f2.rank:
        raise RankMismatch(
            f"incompatible frames: ({f1.ambient_dim},{f1.rank}) vs "
            f"({f2.ambient_dim},{f2.rank})"
        )
    return op_norm(f1.projector() - f2.projector())


def smallest_singular_value(a) -> float:
    arr = np.asarray(a)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False).min())
