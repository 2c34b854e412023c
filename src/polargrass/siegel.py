"""The Siegel disk, paired symplectic blocks and the Mobius action.

Points are symmetric strict contractions Z (n x n complex).  Symplectic
maps commuting with the real structure act through alpha-paired blocks
``[[a, conj(b)], [b, conj(a)]]``; the disk action is
``Z -> (b + conj(a) Z)(a + conj(b) Z)^{-1}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryContact,
    DimensionMismatch,
    InvariantViolation,
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
    check_invertible,
    check_symmetry,
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
from .polarization import EigenSplit, PositiveSymplecticPolarization


@dataclass(frozen=True)
class SiegelPoint:
    """A symmetric strict contraction; ``atol`` is the symmetry budget.

    The default budget (1e-10) suits algebraically constructed points;
    quadrature-produced points pass a looser, explicitly declared budget.
    ``opnorm`` is ``||Z||_op`` from the contraction check.
    """

    Z: np.ndarray
    atol: float = field(default=1e-10, compare=False)
    opnorm: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        Z = as_matrix(self.Z, square=True)
        check_symmetry(Z, 1.0, self.atol, InvariantViolation, "Z not symmetric")
        norm = op_norm(Z)
        if norm >= 1.0 - 1e-12:
            raise InvariantViolation(f"Z not a strict contraction (opnorm {norm:.6f})")
        object.__setattr__(self, "Z", freeze(Z))
        object.__setattr__(self, "opnorm", norm)

    @property
    def n(self) -> int:
        return self.Z.shape[0]


@dataclass(frozen=True)
class SiegelReport:
    symmetry_residual: float
    min_eigenvalue: float
    member: bool


def _membership(Z: np.ndarray, positive, budget: float, tol: Tolerances) -> SiegelReport:
    """Report for ``Z`` whose model needs ``positive`` positive definite;
    InvariantViolation if a residual overflows, as no report could carry it."""
    sym = symmetry_deviation(Z)
    if not (math.isfinite(sym) and np.all(np.isfinite(positive))):
        raise InvariantViolation("membership residuals of Z overflow")
    min_eig = min_eig_hermitian(positive)
    member = within(sym, budget, hs_norm(Z)) and min_eig > tol.spd_tol
    return SiegelReport(sym, min_eig, member)


def siegel_membership(Z, tol: Tolerances = DEFAULT_TOL, sym_tol: float | None = None) -> SiegelReport:
    """Membership report for the disk model.

    ``min_eigenvalue`` is the smallest eigenvalue of ``I - Z* Z``;
    membership requires it positive (margin ``spd_tol``) together with
    symmetry within ``sym_tol`` (defaults to ``eq_tol``).
    """
    Z = as_matrix(Z, square=True)
    budget = tol.eq_tol if sym_tol is None else sym_tol
    return _membership(Z, np.eye(Z.shape[0]) - Z.conj().T @ Z, budget, tol)


@dataclass(frozen=True)
class UpperHalfPoint:
    """Symmetric Z with positive definite imaginary part."""

    Z: np.ndarray
    atol: float = field(default=1e-10, compare=False)

    def __post_init__(self) -> None:
        Z = as_matrix(self.Z, square=True)
        check_symmetry(Z, 1.0, self.atol, InvariantViolation, "Z not symmetric")
        if min_eig_hermitian((Z - Z.conj().T) / 2j) <= 0.0:
            raise NotUpperHalf("imaginary part is not positive definite")
        object.__setattr__(self, "Z", freeze(Z))

    @property
    def n(self) -> int:
        return self.Z.shape[0]


def halfspace_membership(Z, tol: Tolerances = DEFAULT_TOL) -> SiegelReport:
    """Membership report for the half-space model (min eigenvalue of Im Z)."""
    Z = as_matrix(Z, square=True)
    return _membership(Z, (Z - Z.conj().T) / 2j, tol.eq_tol, tol)


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
    if smallest_singular_value(eye - Z) <= 1e-12:
        raise BoundaryContact("I - Z is singular")
    res = 1j * (eye + Z) @ np.linalg.inv(eye - Z)
    return UpperHalfPoint(res, atol=max(p.atol, 1e-10))


class BlockSymplectic:
    """Paired blocks (a, b) of a symplectic map commuting with alpha.

    Invariants (within ``atol``): ``a* a - b* b = I`` and
    ``a^T b = b^T a`` in the equivalent form ``a* conj(b) = b* conj(a)``;
    ``a`` must be invertible.
    """

    __slots__ = ("a", "b", "atol")

    def __init__(self, a, b, atol: float = 1e-9) -> None:
        a = as_matrix(a, square=True)
        b = as_matrix(b, square=True)
        if a.shape != b.shape:
            raise DimensionMismatch(f"block shapes differ: {a.shape} vs {b.shape}")
        eye = np.eye(a.shape[0])
        dev1 = hs_norm(a.conj().T @ a - b.conj().T @ b - eye)
        dev2 = hs_norm(a.conj().T @ b.conj() - b.conj().T @ a.conj())
        scale = hs_norm(a) ** 2
        if not (within(dev1, atol, scale) and within(dev2, atol, scale)):
            raise NotSymplectic(f"block identities fail ({dev1:.3e}, {dev2:.3e})")
        check_invertible(a, 1e-12, NumericallySingular, "block a is singular")
        object.__setattr__(self, "a", freeze(a))
        object.__setattr__(self, "b", freeze(b))
        object.__setattr__(self, "atol", float(atol))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("BlockSymplectic is immutable")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @classmethod
    def identity(cls, n: int) -> "BlockSymplectic":
        return cls(np.eye(n), np.zeros((n, n)))

    @classmethod
    def from_unitary(cls, u) -> "BlockSymplectic":
        """The symplectic map with b = 0 determined by a unitary block."""
        u = as_matrix(u, square=True)
        return cls(u, np.zeros_like(u))

    def matrix(self) -> np.ndarray:
        """Full 2n x 2n matrix in the paired eigencoordinates."""
        return np.block([[self.a, self.b.conj()], [self.b, self.a.conj()]])

    def inverse(self) -> "BlockSymplectic":
        return BlockSymplectic(self.a.conj().T, -self.b.T, atol=self.atol)

    def compose(self, other: "BlockSymplectic") -> "BlockSymplectic":
        """Blocks of ``self o other``."""
        if self.n != other.n:
            raise DimensionMismatch("sizes differ")
        a = self.a @ other.a + self.b.conj() @ other.b
        b = self.b @ other.a + self.a.conj() @ other.b
        return BlockSymplectic(a, b, atol=max(self.atol, other.atol))

    def __repr__(self) -> str:
        return f"BlockSymplectic(n={self.n})"


def block_decompose(u, split: EigenSplit, tol: Tolerances = DEFAULT_TOL, atol: float | None = None) -> BlockSymplectic:
    """Compress a real symplectic map into paired blocks.

    Parameters
    ----------
    u
        Real matrix preserving the symplectic form of ``split.space``.
    split
        Paired eigenbasis fixing the coordinates.
    atol
        Tolerance forwarded to the block invariants (defaults to 1e-9).

    Raises
    ------
    NotSymplectic
        If u fails to preserve omega.
    ShapeViolation
        If the compressed matrix is not alpha-paired (cannot happen for
        real u; guards against passing a non-real matrix).
    """
    u = as_matrix(u, square=True)
    Om = split.space.Omega
    dev = hs_norm(u.T @ Om @ u - Om)
    if dev > tol.eq_tol * max(1.0, op_norm(u) ** 2) * max(1.0, hs_norm(Om)):
        raise NotSymplectic(f"omega preservation fails by {dev:.3e}")
    M = split.compress(u)
    n = split.n
    a, tr = M[:n, :n], M[:n, n:]
    b, br = M[n:, :n], M[n:, n:]
    pair_dev = max(hs_norm(tr - b.conj()), hs_norm(br - a.conj()))
    budget = 1e-9 if atol is None else atol
    if pair_dev > budget * max(1.0, hs_norm(M)):
        raise ShapeViolation(f"compressed matrix is not alpha-paired ({pair_dev:.3e})")
    return BlockSymplectic(a, b, atol=budget)


def mobius_act(u: BlockSymplectic, p: SiegelPoint) -> SiegelPoint:
    """Act on a disk point: ``Z -> (b + conj(a) Z)(a + conj(b) Z)^{-1}``.

    Raises
    ------
    NumericallySingular
        If the denominator is numerically singular (it is invertible in
        exact arithmetic for strict contractions).
    """
    if u.n != p.n:
        raise DimensionMismatch("block size does not match the point")
    den = u.a + u.b.conj() @ p.Z
    num = u.b + u.a.conj() @ p.Z
    Z2 = right_divide(num, den, 1e-12, NumericallySingular, "denominator is singular")
    sym_budget = max(p.atol, u.atol * 10.0, 1e-10)
    return SiegelPoint(Z2, atol=sym_budget)


def sp_from_siegel_point(p: SiegelPoint) -> BlockSymplectic:
    """The positive-gauge symplectic map sending 0 to Z.

    Blocks are ``a = (I - conj(Z) Z)^{-1/2}`` (Hermitian positive) and
    ``b = Z a``; transitivity of the disk action follows by composing
    these with unitary stabilizers of 0.
    """
    Z = p.Z
    a = inverse_sqrt_hermitian(np.eye(p.n) - Z.conj() @ Z)
    return BlockSymplectic(a, Z @ a)


def graph_frame(p: SiegelPoint, split: EigenSplit) -> Frame:
    """Frame of the graph subspace ``{x + Zx : x in L+}``."""
    if p.n != split.n:
        raise DimensionMismatch("point size does not match the split")
    return Frame.from_columns(split.lplus + split.lminus @ p.Z)


def graph_operator(w, split: EigenSplit, atol: float = 1e-10) -> SiegelPoint:
    """Invert :func:`graph_frame`: read off Z from a positive Lagrangian.

    Accepts a :class:`Frame` or a :class:`PositiveSymplecticPolarization`.

    Raises
    ------
    ProjectionSingular
        If the subspace is not a graph over L+ (projection has kernel).
    """
    frame = w.wplus if isinstance(w, PositiveSymplecticPolarization) else w
    if frame.ambient_dim != 2 * split.n or frame.rank != split.n:
        raise DimensionMismatch("frame shape does not match the split")
    cplus, cminus = split.coords(frame.matrix)
    Z = right_divide(cminus, cplus, 1e-8, ProjectionSingular, "projection to L+ is singular")
    return SiegelPoint(Z, atol=atol)


@dataclass(frozen=True)
class RestrictedReport:
    hs_b: float
    hs_jdef: float
    hs_jdef_direct: float


def restricted_character(u: BlockSymplectic) -> RestrictedReport:
    """Hilbert-Schmidt data of the J-deformation ``u^{-1} J u - J``.

    Returns the block norm ``||b||_HS``, the deformation norm assembled
    from the closed block form ``2i [[b*b, b*conj(a)], [-b^T a, -conj(b*b)]]``,
    and the same quantity recomputed from the full matrices as a
    cross-check.  The deformation vanishes exactly when b = 0, i.e. when
    u also preserves the metric.
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
