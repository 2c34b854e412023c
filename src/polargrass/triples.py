"""Compatible triples (metric, complex structure, symplectic form) on R^2n.

The three structures are tied together by ``omega(v, w) = g(Jv, w)``; in
matrix form (pairing convention ``form(v, w) = v^T M w``) the equivalent
identities are ``G = Omega J``, ``Omega = J^T G`` and ``J = -G^{-1} Omega``.
Any two members determine the third; the ``complete_from_*`` functions
perform those completions with explicit failure modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    FormatError,
    InvariantViolation,
    NotAComplexStructure,
    NotPositive,
    NotSkewAdjoint,
    NotSkewSymmetric,
    SingularTransform,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_real_matrix,
    check_clears,
    check_invertible,
    check_symmetry,
    check_within,
    clears,
    freeze,
    hs_norm,
    min_eig_hermitian,
    smallest_singular_value,
    within,
)

_SYM_KINDS = ("symmetric", "antisymmetric")


@dataclass(frozen=True, eq=False)
class BilinearForm:
    """A real nondegenerate bilinear form ``(v, w) -> v^T M w``.

    ``kind`` fixes the symmetry class.  Nondegeneracy is the strong kind:
    the matrix must be invertible with a recorded smallest singular value.
    On a finite-dimensional space weak nondegeneracy (injective musical
    map) and strong nondegeneracy (invertible musical map) coincide, so a
    single invertibility check covers both; the distinction only opens up
    in infinite dimensions.
    """

    kind: str
    matrix: np.ndarray
    min_singular_value: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _SYM_KINDS:
            raise FormatError(f"kind must be one of {_SYM_KINDS}, got {self.kind!r}")
        arr = as_real_matrix(self.matrix, square=True)
        sign = 1.0 if self.kind == "symmetric" else -1.0
        check_symmetry(arr, sign, 1e-10, InvariantViolation, f"form is not {self.kind}")
        smin = smallest_singular_value(arr)
        check_clears(smin, 1e-12, hs_norm(arr), InvariantViolation, "form is degenerate: sigma_min")
        object.__setattr__(self, "matrix", freeze(arr))
        object.__setattr__(self, "min_singular_value", smin)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class ComplexStructure:
    """A real matrix J with ``J^2 = -I``; ``atol`` is the budget of
    ``square_residual = ||J^2 + I||`` relative to ``||J||^2``.

    The default budget (1e-10) suits given structures; a completion passes
    the ``eq_tol`` it was asked for.
    """

    matrix: np.ndarray
    atol: float = field(default=1e-10, compare=False)
    square_residual: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        arr = as_real_matrix(self.matrix, square=True)
        if arr.shape[0] % 2 != 0 or arr.shape[0] == 0:
            raise DimensionMismatch("a complex structure needs even positive dimension")
        dev = hs_norm(arr @ arr + np.eye(arr.shape[0]))
        check_within(dev, self.atol, hs_norm(arr) ** 2, NotAComplexStructure,
                     "J^2 deviates from -I")
        object.__setattr__(self, "matrix", freeze(arr))
        object.__setattr__(self, "square_residual", dev)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class TripleReport:
    """Identity residuals and the smallest eigenvalue of G, each with its verdict."""

    residuals: dict[str, float]
    compatible: bool
    g_min_eigenvalue: float
    positive: bool

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def verify_triple(
    g: BilinearForm,
    J: ComplexStructure,
    omega: BilinearForm,
    tol: Tolerances = DEFAULT_TOL,
) -> TripleReport:
    """Check the three equivalent compatibility identities.

    Parameters
    ----------
    g
        Symmetric positive definite form.
    J
        Complex structure.
    omega
        Antisymmetric form.
    tol
        ``tol.eq_tol`` bounds each identity residual relative to its operands:
        ``||Omega|| ||J||``, ``||J|| ||G||`` and ``||Omega|| / sigma_min(G)``;
        ``tol.spd_tol`` is the positivity margin of G.

    Returns
    -------
    TripleReport
        Identity residuals (Hilbert-Schmidt), G's least eigenvalue, verdicts.

    Raises
    ------
    DimensionMismatch
        If the three matrices do not share one dimension.
    """
    if g.kind != "symmetric" or omega.kind != "antisymmetric":
        raise FormatError("verify_triple expects (symmetric g, J, antisymmetric omega)")
    if not (g.dim == J.dim == omega.dim):
        raise DimensionMismatch(f"dims differ: g {g.dim}, J {J.dim}, omega {omega.dim}")
    G, Jm, Om = g.matrix, J.matrix, omega.matrix
    nG, nJ, nOm = hs_norm(G), hs_norm(Jm), hs_norm(Om)
    res = {
        "g_from_omega_J": hs_norm(G - Om @ Jm),
        "omega_from_g_J": hs_norm(Om - Jm.T @ G),
        "J_from_g_omega": hs_norm(Jm + np.linalg.solve(G, Om)),
    }
    scales = (nOm * nJ, nJ * nG, nOm / g.min_singular_value)
    compatible = all(within(r, tol.eq_tol, s) for r, s in zip(res.values(), scales))
    min_eig = min_eig_hermitian(G)
    return TripleReport(res, compatible, min_eig, clears(min_eig, tol.spd_tol, 0.0))


@dataclass(frozen=True, eq=False)
class CompatibleTriple:
    """A verified compatible triple (g, J, omega) with its :func:`verify_triple` ``report``."""

    g: BilinearForm
    J: ComplexStructure
    omega: BilinearForm
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False)
    report: TripleReport = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        report = verify_triple(self.g, self.J, self.omega, self.tol)
        if not report.positive:
            raise NotPositive(f"minimum eigenvalue of g {report.g_min_eigenvalue:.3e}")
        if not report.compatible:
            raise InvariantViolation(f"triple identities fail: {report.residuals}")
        object.__setattr__(self, "report", report)

    @property
    def dim(self) -> int:
        return self.g.dim

    # Convenience raw-matrix views used throughout the package.
    @property
    def G(self) -> np.ndarray:
        return self.g.matrix

    @property
    def Jmat(self) -> np.ndarray:
        return self.J.matrix

    @property
    def Omega(self) -> np.ndarray:
        return self.omega.matrix


def planar_triple(weights) -> CompatibleTriple:
    """Triple on R^2n that is ``w_k`` times the standard one on the
    ``(x_k, y_k)`` plane: ``G = w_k I_2``, ``J = [[0, -1], [1, 0]]`` and
    ``Omega = w_k [[0, 1], [-1, 0]]``.  Entries are set by index into
    zeros, so no entry is a negative zero."""
    w = np.asarray(weights, dtype=float)
    dim = 2 * w.size
    x = np.arange(0, dim, 2)
    y = x + 1
    G = np.zeros((dim, dim))
    J = np.zeros((dim, dim))
    Om = np.zeros((dim, dim))
    G[x, x] = G[y, y] = w
    J[y, x] = 1.0
    J[x, y] = -1.0
    Om[x, y] = w
    Om[y, x] = -w
    return CompatibleTriple(
        BilinearForm("symmetric", G),
        ComplexStructure(J),
        BilinearForm("antisymmetric", Om),
    )


def standard_triple(n: int) -> CompatibleTriple:
    """Euclidean metric, counterclockwise rotation and the standard area
    form on each (x_k, y_k) plane of R^2n."""
    if n < 1:
        raise DimensionMismatch("n must be at least 1")
    return planar_triple(np.ones(n))


def complete_from_g_J(
    g: BilinearForm, J: ComplexStructure, tol: Tolerances = DEFAULT_TOL
) -> CompatibleTriple:
    """Complete (g, J) to a triple via ``Omega = J^T G``.

    Raises
    ------
    NotSkewAdjoint
        If J is not g-skew-adjoint, i.e. ``G J + J^T G != 0``.
    """
    if g.dim != J.dim:
        raise DimensionMismatch(f"dims differ: g {g.dim}, J {J.dim}")
    dev = hs_norm(g.matrix @ J.matrix + J.matrix.T @ g.matrix)
    check_within(dev, tol.eq_tol, hs_norm(g.matrix), NotSkewAdjoint, "g-skew-adjointness fails")
    omega = BilinearForm("antisymmetric", J.matrix.T @ g.matrix)
    return CompatibleTriple(g, J, omega, tol)


def complete_from_g_omega(
    g: BilinearForm, omega: BilinearForm, tol: Tolerances = DEFAULT_TOL
) -> CompatibleTriple:
    """Complete (g, omega) to a triple via ``J = -G^{-1} Omega``.

    Raises
    ------
    NotAComplexStructure
        If the candidate squares to something other than -I (budget
        ``tol.eq_tol``).
    """
    if g.dim != omega.dim:
        raise DimensionMismatch(f"dims differ: g {g.dim}, omega {omega.dim}")
    J = ComplexStructure(-np.linalg.solve(g.matrix, omega.matrix), atol=tol.eq_tol)
    return CompatibleTriple(g, J, omega, tol)


def complete_from_J_omega(
    J: ComplexStructure, omega: BilinearForm, tol: Tolerances = DEFAULT_TOL
) -> CompatibleTriple:
    """Complete (J, omega) to a triple via ``G = Omega J``.

    Raises
    ------
    NotSkewSymmetric
        If the candidate metric is not symmetric (J fails to be
        omega-skew-symmetric).
    NotPositive
        If the candidate metric is symmetric but not positive definite,
        e.g. for ``(-J, omega)`` when ``(J, omega)`` is tame.
    """
    if J.dim != omega.dim:
        raise DimensionMismatch(f"dims differ: J {J.dim}, omega {omega.dim}")
    Gcand = omega.matrix @ J.matrix
    check_symmetry(Gcand, 1.0, tol.eq_tol, NotSkewSymmetric, "candidate metric is asymmetric")
    g = BilinearForm("symmetric", 0.5 * (Gcand + Gcand.T))
    return CompatibleTriple(g, J, omega, tol)


#: Relative sigma_min floor for the map of :func:`pullback_triple`.
PULLBACK_RCOND = 1e-12


def pullback_triple(u, t: CompatibleTriple) -> CompatibleTriple:
    """Pull a triple back along an invertible real map ``u``.

    Forms transform as ``M -> u^{-T} M u^{-1}`` and the structure as
    ``J -> u J u^{-1}``, so compatibility is preserved exactly.

    Raises
    ------
    SingularTransform
        If ``u`` is numerically singular.
    """
    u = as_real_matrix(u, square=True)
    if u.shape[0] != t.dim:
        raise DimensionMismatch(f"u has dim {u.shape[0]}, triple has {t.dim}")
    uinv = check_invertible(u, PULLBACK_RCOND, SingularTransform, "u is singular")
    G = uinv.T @ t.G @ uinv
    Om = uinv.T @ t.Omega @ uinv
    J = u @ t.Jmat @ uinv
    return CompatibleTriple(
        BilinearForm("symmetric", 0.5 * (G + G.T)),
        ComplexStructure(J),
        BilinearForm("antisymmetric", 0.5 * (Om - Om.T)),
    )

