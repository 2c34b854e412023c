"""Paired blocks and graph coordinates for both settings; the Siegel disk.

Real maps commuting with the real structure act through alpha-paired
blocks ``[[a, conj(b)], [b, conj(a)]]``: symplectic for ``sign = 1``,
orthogonal for ``sign = -1``.  A polarization in a chart is the graph of Z
(symmetric, resp. antisymmetric) over the chart center, and the blocks act
on it by ``Z -> (b + conj(a) Z)(a + conj(b) Z)^{-1}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable

import numpy as np

from .errors import (
    BoundaryContact,
    DimensionMismatch,
    FormatError,
    InvariantViolation,
    NotOrthogonal,
    NotSymplectic,
    NotUpperHalf,
    NumericallySingular,
    ProjectionSingular,
    ShapeViolation,
)
from .linalg import (
    DEFAULT_TOL,
    Frame,
    Tolerances,
    as_matrix,
    check_clears,
    check_invertible,
    check_symmetry,
    check_within,
    clears,
    freeze,
    hs_norm,
    inverse_sqrt_hermitian,
    min_eig_hermitian,
    op_norm,
    right_divide,
    smallest_singular_value,
    symmetry_deviation,
    within,
)
from .polarization import EigenSplit, Polarization

#: Relative cut at or below which a chart projection's singular value is kernel.
KERNEL_THRESHOLD = 1e-8

#: Relative budget of the paired-block identities and of a compressed map's pairing.
BLOCK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SignedMatrix:
    """A square matrix with ``Z^T = sign Z`` within the relative budget ``atol``.

    The graph coordinates of both settings: symmetric for ``sign = 1``,
    antisymmetric for ``sign = -1``.  Subclasses add their own conditions.
    ``symmetry_residual`` is ``||Z - sign Z^T||`` from the symmetry check.
    """

    sign: ClassVar[int] = 1
    Z: np.ndarray
    atol: float = field(default=1e-10, compare=False)
    symmetry_residual: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        Z = as_matrix(self.Z, square=True)
        what = "Z not symmetric" if self.sign > 0 else "Z not antisymmetric"
        dev = check_symmetry(Z, self.sign, self.atol, InvariantViolation, what)
        object.__setattr__(self, "Z", freeze(Z))
        object.__setattr__(self, "symmetry_residual", dev)

    @property
    def n(self) -> int:
        return self.Z.shape[0]


@dataclass(frozen=True, eq=False)
class SiegelPoint(SignedMatrix):
    """A symmetric strict contraction; ``atol`` is the symmetry budget.

    The default budget (1e-10) suits algebraically constructed points;
    quadrature-produced points pass a looser, explicitly declared budget.
    ``opnorm`` is ``||Z||_op`` from the contraction check.
    """

    opnorm: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        norm = op_norm(self.Z)
        check_clears(1.0 - norm, 1e-12, 0.0, InvariantViolation, "Z not a strict contraction: 1-||Z||")
        object.__setattr__(self, "opnorm", norm)


@dataclass(frozen=True)
class SiegelReport:
    symmetry_residual: float
    min_eigenvalue: float
    member: bool


def _membership(Z: np.ndarray, positive, tol: Tolerances) -> SiegelReport:
    """Report for ``Z`` whose model needs ``positive`` positive definite;
    InvariantViolation if a residual overflows, as no report could carry it."""
    sym = symmetry_deviation(Z)
    if not (math.isfinite(sym) and np.all(np.isfinite(positive))):
        raise InvariantViolation("membership residuals of Z overflow")
    min_eig = min_eig_hermitian(positive)
    member = within(sym, tol.eq_tol, hs_norm(Z)) and clears(min_eig, tol.spd_tol, 0.0)
    return SiegelReport(sym, min_eig, member)


def siegel_membership(Z, tol: Tolerances = DEFAULT_TOL) -> SiegelReport:
    """Membership report for the disk model.

    ``min_eigenvalue`` is the smallest eigenvalue of ``I - Z* Z``;
    membership requires it positive (margin ``spd_tol``) together with
    symmetry within ``eq_tol``.
    """
    Z = as_matrix(Z, square=True)
    return _membership(Z, np.eye(Z.shape[0]) - Z.conj().T @ Z, tol)


@dataclass(frozen=True, eq=False)
class UpperHalfPoint(SignedMatrix):
    """Symmetric Z with positive definite imaginary part."""

    def __post_init__(self) -> None:
        super().__post_init__()
        min_eig = min_eig_hermitian((self.Z - self.Z.conj().T) / 2j)
        check_clears(min_eig, 0.0, 0.0, NotUpperHalf, "imaginary part is not positive definite")


def halfspace_membership(Z, tol: Tolerances = DEFAULT_TOL) -> SiegelReport:
    """Membership report for the half-space model (min eigenvalue of Im Z)."""
    Z = as_matrix(Z, square=True)
    return _membership(Z, (Z - Z.conj().T) / 2j, tol)


def disk_to_halfspace(p: SiegelPoint) -> UpperHalfPoint:
    """Matrix Cayley transform ``Z -> i (I + Z)(I - Z)^{-1}``.

    Raises
    ------
    BoundaryContact
        If ``I - Z`` is singular (the point touches the disk boundary
    under the transform).
    """
    Z = p.Z
    eye = np.eye(p.n)
    check_clears(smallest_singular_value(eye - Z), 1e-12, 0.0, BoundaryContact, "I - Z is singular")
    res = 1j * (eye + Z) @ np.linalg.inv(eye - Z)
    return UpperHalfPoint(res, atol=max(p.atol, 1e-10))


class PairedBlocks:
    """Paired blocks (a, b) of a real map ``M = [[a, conj(b)], [b, conj(a)]]``.

    Invariants: ``a* a - sign b* b = I`` and ``a^T b = sign b^T a``.  For
    ``sign = 1`` (symplectic) each holds within :data:`BLOCK_TOL` relative to
    ``||a||^2`` and ``a`` must be invertible; for ``sign = -1`` (orthogonal)
    ``M* M - I`` is within :data:`BLOCK_TOL` relative to ``||M||``, and a
    singular ``a`` is legitimate: M then moves L+ onto a subspace meeting L-.
    """

    __slots__ = ("a", "b", "sign")

    def __init__(self, a, b, sign: int = 1) -> None:
        a = as_matrix(a, square=True)
        b = as_matrix(b, square=True)
        if a.shape != b.shape:
            raise DimensionMismatch(f"block shapes differ: {a.shape} vs {b.shape}")
        if sign not in (1, -1):
            raise FormatError(f"sign must be 1 or -1, got {sign!r}")
        dev1 = hs_norm(a.conj().T @ a - sign * (b.conj().T @ b) - np.eye(a.shape[0]))
        dev2 = hs_norm(a.T @ b - sign * (b.T @ a))
        if sign > 0:
            scale = hs_norm(a) ** 2
            check_within(dev1, BLOCK_TOL, scale, NotSymplectic, "a* a - b* b = I fails")
            check_within(dev2, BLOCK_TOL, scale, NotSymplectic, "a^T b = b^T a fails")
            check_invertible(a, 1e-12, NumericallySingular, "block a is singular")
        else:
            # M* M - I holds each residual block twice, as M holds each block
            scale = math.sqrt(2.0) * math.hypot(hs_norm(a), hs_norm(b))
            check_within(math.sqrt(2.0) * math.hypot(dev1, dev2), BLOCK_TOL, scale, NotOrthogonal,
                         "M* M = I fails")
        object.__setattr__(self, "a", freeze(a))
        object.__setattr__(self, "b", freeze(b))
        object.__setattr__(self, "sign", int(sign))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PairedBlocks is immutable")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @classmethod
    def identity(cls, n: int, sign: int = 1) -> "PairedBlocks":
        return cls(np.eye(n), np.zeros((n, n)), sign)

    @classmethod
    def from_unitary(cls, u) -> "PairedBlocks":
        """The symplectic map with b = 0 determined by a unitary block."""
        u = as_matrix(u, square=True)
        return cls(u, np.zeros_like(u))

    def matrix(self) -> np.ndarray:
        """Full 2n x 2n matrix in the paired eigencoordinates."""
        return np.block([[self.a, self.b.conj()], [self.b, self.a.conj()]])

    def inverse(self) -> "PairedBlocks":
        return PairedBlocks(self.a.conj().T, -self.sign * self.b.T, self.sign)

    def compose(self, other: "PairedBlocks") -> "PairedBlocks":
        """Blocks of ``self o other``."""
        if self.n != other.n:
            raise DimensionMismatch("sizes differ")
        if self.sign != other.sign:
            raise ShapeViolation("cannot compose blocks of different signs")
        a = self.a @ other.a + self.b.conj() @ other.b
        b = self.b @ other.a + self.a.conj() @ other.b
        return PairedBlocks(a, b, self.sign)

    def __repr__(self) -> str:
        return f"PairedBlocks(n={self.n}, sign={self.sign:+d})"


#: The symplectic (``sign = 1``) paired blocks, under their historical name.
BlockSymplectic = PairedBlocks


def block_decompose(u, split: EigenSplit, sign: int = 1) -> PairedBlocks:
    """Compress a real map into paired blocks.

    Parameters
    ----------
    u
        Real matrix preserving the symplectic form (``sign = 1``) or the
        metric (``sign = -1``) of ``split.space``.
    split
        Paired eigenbasis fixing the coordinates.

    Raises
    ------
    NotSymplectic, NotOrthogonal
        If u fails to preserve omega (``sign = 1``) or g (``sign = -1``).
    ShapeViolation
        If the compressed matrix is not alpha-paired (cannot happen for
        real u; guards against passing a non-real matrix).
    """
    u = as_matrix(u, square=True)
    form = split.space.form(sign)
    error, what = (NotSymplectic, "omega") if sign > 0 else (NotOrthogonal, "metric")
    unorm = op_norm(u)
    # a product, not ** 2: an overflowing scale fails the gate instead of raising OverflowError
    check_within(hs_norm(u.T @ form @ u - form), 1e-10 * max(1.0, hs_norm(form)), unorm * unorm,
                 error, f"{what} preservation fails")
    M = split.compress(u)
    n = split.n
    a, tr = M[:n, :n], M[:n, n:]
    b, br = M[n:, :n], M[n:, n:]
    scale = hs_norm(M)
    for dev in (hs_norm(tr - b.conj()), hs_norm(br - a.conj())):
        check_within(dev, BLOCK_TOL, scale, ShapeViolation, "compressed matrix is not alpha-paired")
    return PairedBlocks(a, b, sign)


def mobius(a, b, Z, rel: float, error: type, what: str) -> np.ndarray:
    """``Z -> (b + conj(a) Z)(a + conj(b) Z)^{-1}``, the paired-block action on
    graph coordinates; the denominator is guarded by :func:`right_divide`."""
    return right_divide(b + a.conj() @ Z, a + b.conj() @ Z, rel, error, what)


def mobius_act(u: PairedBlocks, p: SignedMatrix) -> SignedMatrix:
    """Act on a graph coordinate; the result has the type of ``p``.

    ``p`` is a :class:`SiegelPoint` for ``u.sign = 1`` (the disk action) or
    an antisymmetric ``OrthoGraphOperator`` over L+ for ``u.sign = -1``.

    Raises
    ------
    ShapeViolation
        If the sign of ``p`` differs from ``u.sign``.
    NumericallySingular
        If the denominator is numerically singular (it is invertible in
        exact arithmetic for strict contractions; for ``sign = -1`` a
        singular one means the image leaves the chart around L+).
    """
    if u.n != p.n:
        raise DimensionMismatch("block size does not match the point")
    if u.sign != p.sign:
        raise ShapeViolation(f"blocks of sign {u.sign:+d} cannot act on {type(p).__name__}")
    Z2 = mobius(u.a, u.b, p.Z, 1e-12, NumericallySingular, "denominator is singular")
    return type(p)(Z2, atol=max(p.atol, 10.0 * BLOCK_TOL))


def sp_from_siegel_point(p: SiegelPoint) -> PairedBlocks:
    """The positive-gauge symplectic map sending 0 to Z.

    Blocks are ``a = (I - conj(Z) Z)^{-1/2}`` (Hermitian positive) and
    ``b = Z a``; transitivity of the disk action follows by composing
    these with unitary stabilizers of 0.
    """
    Z = p.Z
    a = inverse_sqrt_hermitian(np.eye(p.n) - Z.conj() @ Z)
    return PairedBlocks(a, Z @ a)


def chart_slots(n: int, swapped: Iterable[int] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Paired-basis columns of a chart center and of their partners.

    Slot j (1-based) of the center holds ``e_{-j}`` for j in ``swapped`` and
    ``e_j`` otherwise; its partner is the other one.  ``swapped = ()`` gives
    L+ with partners L-.
    """
    swapped = np.fromiter(swapped, dtype=int)
    if swapped.size and swapped.max() > n:
        raise DimensionMismatch(f"chart index {swapped.max()} exceeds n={n}")
    slots = np.arange(n)
    slots[swapped - 1] += n
    return slots, (slots + n) % (2 * n)


def graph_columns(split: EigenSplit, Z, swapped: Iterable[int] = ()) -> np.ndarray:
    """Columns spanning the graph ``{x + Zx}`` of Z over a chart center."""
    slots, perp = chart_slots(split.n, swapped)
    return split.basis[:, slots] + split.basis[:, perp] @ Z


def chart_solve(dual: np.ndarray, cols: np.ndarray, swapped: Iterable[int] = ()) -> tuple[int, np.ndarray]:
    """Read ``span(cols)`` as a graph over a chart center from one SVD of the
    projection ``C = dual[slots] @ cols`` (``dual`` is the split's dual basis).

    Returns ``(0, Z)`` with ``Z = dual[perp] @ cols @ C^{-1}`` if C has no
    singular value at or below ``KERNEL_THRESHOLD * max(1, sigma_max)``, else
    ``(k, x)``: k such values, and ``cols @ x`` a kernel vector.

    Raises
    ------
    ProjectionSingular
        If the SVD fails or a singular value is not finite.
    """
    slots, perp = chart_slots(dual.shape[0] // 2, swapped)
    C = dual[slots] @ cols
    try:
        _, svals, vh = np.linalg.svd(C)
    except np.linalg.LinAlgError as exc:
        raise ProjectionSingular(f"projection onto the chart center: {exc}") from exc
    if not np.all(np.isfinite(svals)):
        raise ProjectionSingular("projection onto the chart center is not finite")
    kernel = int(np.sum(svals <= KERNEL_THRESHOLD * max(1.0, svals.max(initial=0.0))))
    if kernel:
        return kernel, vh[-1].conj()
    return 0, np.linalg.solve(C.T, (dual[perp] @ cols).T).T


def graph_frame(p: SiegelPoint, split: EigenSplit) -> Frame:
    """Frame of the graph subspace ``{x + Zx : x in L+}``."""
    if p.n != split.n:
        raise DimensionMismatch("point size does not match the split")
    return Frame.from_columns(graph_columns(split, p.Z))


def graph_operator(w, split: EigenSplit) -> SiegelPoint:
    """Invert :func:`graph_frame`: read off Z from a positive Lagrangian.

    Accepts a :class:`Frame` or a :class:`Polarization`.

    Raises
    ------
    ProjectionSingular
        If the subspace is not a graph over L+ (projection has kernel).
    """
    frame = w.wplus if isinstance(w, Polarization) else w
    if frame.ambient_dim != 2 * split.n or frame.rank != split.n:
        raise DimensionMismatch("frame shape does not match the split")
    kernel, Z = chart_solve(split.dual, frame.matrix)
    if kernel:
        raise ProjectionSingular(f"projection to L+ is singular (kernel dimension {kernel})")
    return SiegelPoint(Z)


@dataclass(frozen=True)
class RestrictedReport:
    hs_b: float
    hs_jdef: float
    hs_jdef_direct: float


def restricted_character(u: PairedBlocks) -> RestrictedReport:
    """Hilbert-Schmidt data of the J-deformation ``u^{-1} J u - J``.

    Returns the block norm ``||b||_HS``, the deformation norm assembled
    from the closed block form ``2i [[b*b, b*conj(a)], [-b^T a, -conj(b*b)]]``,
    and the same quantity recomputed from the full matrices as a
    cross-check.  The closed form is that of ``sign = 1``; for ``sign = -1``
    the deformation is its negative, with the same norm.  The deformation
    vanishes exactly when b = 0, i.e. when u also preserves the other form.
    """
    a, b = u.a, u.b
    hermit = b.conj().T @ b
    mixed = b.conj().T @ a.conj()
    top = np.block([[hermit, mixed], [-b.T @ a, -hermit.conj()]])
    closed = hs_norm(2j * top)

    n = u.n
    J = np.diag(np.concatenate([1j * np.ones(n), -1j * np.ones(n)]))
    full = u.matrix()
    direct = hs_norm(np.linalg.solve(full, J @ full) - J)
    return RestrictedReport(hs_b=hs_norm(b), hs_jdef=closed, hs_jdef_direct=direct)
