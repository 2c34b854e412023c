"""Complexified spaces, eigensplits and polarizations.

Conventions, fixed once and used everywhere:

* The complexification C^2n of R^2n carries the entrywise conjugation
  ``alpha`` as its real structure; the distinguished real basis is the
  standard one, so ``alpha = numpy.conj``.
* The metric extends sesquilinearly, linear in the *first* slot:
  ``g(v, w) = v^T G conj(w)``.  The symplectic form extends bilinearly:
  ``omega(v, w) = v^T Omega w``.
* ``L_pm`` are the (-+ i)-eigenspaces of J; ``alpha`` exchanges them.
  Eigenframes are orthonormal with respect to g (not the standard
  pairing), which is what makes compressed operators have conjugate-
  transpose adjoints and paired-block structure downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    DimensionMismatch,
    EigenspaceDimension,
    InvariantViolation,
    NotComplementary,
    NotPositive,
    NotRealizable,
    RankMismatch,
)
from .linalg import (
    DEFAULT_TOL,
    Frame,
    Tolerances,
    as_matrix,
    freeze,
    hs_norm,
    smallest_singular_value,
    sqrt_pair_hermitian,
)
from .triples import BilinearForm, CompatibleTriple, ComplexStructure


@dataclass(frozen=True)
class ComplexifiedSpace:
    """C^2n with the sesquilinear metric and bilinear symplectic form
    inherited from a compatible triple."""

    triple: CompatibleTriple
    G: np.ndarray = field(init=False)
    Omega: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "G", freeze(self.triple.G.astype(np.complex128)))
        object.__setattr__(self, "Omega", freeze(self.triple.Omega.astype(np.complex128)))

    @property
    def dim(self) -> int:
        return self.G.shape[0]

    @staticmethod
    def alpha(v: np.ndarray) -> np.ndarray:
        """The real structure: entrywise conjugation."""
        return np.conj(v)

    def g(self, v, w) -> complex:
        """Sesquilinear metric, linear in the first argument."""
        return complex(np.asarray(v) @ self.G @ np.conj(np.asarray(w)))

    def omega(self, v, w) -> complex:
        """Bilinear extension of the symplectic form."""
        return complex(np.asarray(v) @ self.Omega @ np.asarray(w))

    def gram(self, cols: np.ndarray) -> np.ndarray:
        """Sesquilinear Gram matrix of a column family."""
        return cols.conj().T @ self.G @ cols

    def g_orthonormalize(self, cols: np.ndarray) -> np.ndarray:
        """Return columns spanning the same space, orthonormal for g."""
        gram = self.gram(cols)
        low = np.linalg.cholesky(0.5 * (gram + gram.conj().T))
        return solve_triangular(low, cols.T.conj(), lower=True).conj().T


def complexify(t: CompatibleTriple) -> ComplexifiedSpace:
    """Extend a triple to its complexification, checking the extended
    pairing identities on a deterministic random sample.

    The sesquilinear metric and bilinear symplectic form satisfy
    ``g(v, w) = omega(v, J alpha(w))`` and ``omega(v, w) = g(Jv, alpha(w))``
    for complex vectors; a violation means the inputs were inconsistent.
    """
    space = ComplexifiedSpace(t)
    rng = np.random.default_rng(714025)
    J = t.Jmat.astype(np.complex128)
    dim = space.dim
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        r1 = abs(space.g(v, w) - space.omega(v, J @ np.conj(w)))
        r2 = abs(space.omega(v, w) - space.g(J @ v, np.conj(w)))
        worst = max(worst, r1, r2)
    scale = max(1.0, hs_norm(t.G), hs_norm(t.Omega)) * dim
    if worst > 1e-9 * scale:
        raise InvariantViolation(f"extension identities fail by {worst:.3e}")
    return space


@dataclass(frozen=True)
class EigenSplit:
    """The alpha-paired eigenbasis of J: columns of ``lplus`` span the
    (+i)-eigenspace, ``lminus = conj(lplus)`` the (-i)-eigenspace.

    Both blocks are g-orthonormal, so ``dual @ basis = I`` with
    ``basis = [lplus | lminus]`` and ``dual = basis^* G``; compressing an
    operator T as ``dual @ T @ basis`` expresses it in paired coordinates.
    """

    space: ComplexifiedSpace
    J: np.ndarray
    lplus: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "J", freeze(np.asarray(self.J, dtype=np.complex128)))
        object.__setattr__(self, "lplus", freeze(np.asarray(self.lplus, dtype=np.complex128)))
        n = self.n
        dev_eig = hs_norm(self.J @ self.lplus - 1j * self.lplus)
        dev_onb = hs_norm(self.space.gram(self.lplus) - np.eye(n))
        if dev_eig > 1e-9 * max(1.0, hs_norm(self.J)):
            raise EigenspaceDimension(f"columns not in the +i eigenspace ({dev_eig:.3e})")
        if dev_onb > 1e-9:
            raise InvariantViolation(f"eigenframe not g-orthonormal ({dev_onb:.3e})")

    @property
    def n(self) -> int:
        return self.lplus.shape[1]

    @property
    def lminus(self) -> np.ndarray:
        return np.conj(self.lplus)

    @property
    def basis(self) -> np.ndarray:
        return np.hstack([self.lplus, self.lminus])

    @property
    def dual(self) -> np.ndarray:
        return self.basis.conj().T @ self.space.G

    def compress(self, T) -> np.ndarray:
        """Matrix of T in the paired eigencoordinates."""
        T = as_matrix(T, square=True)
        return self.dual @ T @ self.basis

    def coords(self, vectors) -> tuple[np.ndarray, np.ndarray]:
        """Split coordinates (plus-part, minus-part) of column vectors."""
        arr = np.asarray(vectors, dtype=np.complex128)
        if arr.ndim == 1:
            arr = arr[:, None]
        c = self.dual @ arr
        return c[: self.n], c[self.n :]

    def from_coords(self, cplus, cminus) -> np.ndarray:
        return self.lplus @ np.asarray(cplus) + self.lminus @ np.asarray(cminus)


def eigensplit(space: ComplexifiedSpace, J=None, tol: Tolerances = DEFAULT_TOL) -> EigenSplit:
    """Diagonalize J into its (+-i)-eigenspaces with a g-orthonormal
    alpha-paired basis.

    Parameters
    ----------
    space
        Complexified space carrying the metric.
    J
        Complex structure (matrix or :class:`ComplexStructure`); defaults
        to the structure of the underlying triple.

    Raises
    ------
    EigenspaceDimension
        If the two eigenspaces do not split the dimension in half.
    """
    if J is None:
        J = space.triple.Jmat
    elif isinstance(J, ComplexStructure):
        J = J.matrix
    J = as_matrix(J, square=True)
    if J.shape[0] != space.dim:
        raise DimensionMismatch(f"J has dim {J.shape[0]}, space has {space.dim}")
    # K J K^{-1} with K = G^{1/2} is skew-Hermitian, so -i K J K^{-1} is
    # Hermitian and diagonalizable with real eigenvalues (= +-1 here).
    K, Kinv = sqrt_pair_hermitian(space.G, tol)
    A = K @ (-1j * J) @ Kinv
    eigvals, eigvecs = np.linalg.eigh(0.5 * (A + A.conj().T))
    if hs_norm(np.abs(eigvals) - 1.0) > 1e-8 * space.dim:
        raise EigenspaceDimension("J eigenvalues deviate from +-i")
    pos = eigvals > 0
    if int(pos.sum()) != space.dim // 2:
        raise EigenspaceDimension(
            f"+i eigenspace has dimension {int(pos.sum())}, expected {space.dim // 2}"
        )
    lplus = Kinv @ eigvecs[:, pos]
    return EigenSplit(space, J, lplus)


def _polarization_frame(space: ComplexifiedSpace, wplus: Frame) -> None:
    if wplus.ambient_dim != space.dim:
        raise DimensionMismatch(
            f"frame ambient {wplus.ambient_dim} != space dim {space.dim}"
        )
    if 2 * wplus.rank != space.dim:
        raise RankMismatch(f"polarization needs rank {space.dim // 2}, got {wplus.rank}")


@dataclass(frozen=True)
class OrthogonalPolarization:
    """A g-isotropic half-dimensional subspace W with C^2n = W + alpha(W).

    Isotropy is for the *bilinear* extension of g, which is the same as
    W being g-orthogonal to alpha(W) for the sesquilinear metric.
    """

    space: ComplexifiedSpace
    wplus: Frame
    validate: bool = field(default=True, compare=False)

    def __post_init__(self) -> None:
        _polarization_frame(self.space, self.wplus)
        if self.validate:
            self.check()

    def check(self) -> dict[str, float]:
        """Isotropy and spanning residuals; raises on violation."""
        W = self.wplus.matrix
        iso = hs_norm(W.T @ self.space.G @ W)
        if iso > 1e-9 * max(1.0, hs_norm(self.space.G)):
            raise InvariantViolation(f"W not g-isotropic ({iso:.3e})")
        Fg = self.space.g_orthonormalize(W)
        proj = Fg @ (Fg.conj().T @ self.space.G)
        span = hs_norm(proj + np.conj(proj) - np.eye(self.space.dim))
        if span > 1e-9 * self.space.dim:
            raise NotComplementary(f"W + alpha(W) does not span ({span:.3e})")
        return {"isotropy": iso, "spanning": span}


@dataclass(frozen=True)
class PositiveSymplecticPolarization:
    """An omega-Lagrangian W with C^2n = W + alpha(W) on which
    ``-i omega(v, alpha(v))`` is positive."""

    space: ComplexifiedSpace
    wplus: Frame
    validate: bool = field(default=True, compare=False)
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self) -> None:
        _polarization_frame(self.space, self.wplus)
        if self.validate:
            self.check(self.tol)

    def positivity_matrix(self) -> np.ndarray:
        W = self.wplus.matrix
        return -1j * W.T @ self.space.Omega @ np.conj(W)

    def check(self, tol: Tolerances = DEFAULT_TOL) -> dict[str, float]:
        W = self.wplus.matrix
        iso = hs_norm(W.T @ self.space.Omega @ W)
        if iso > 1e-9 * max(1.0, hs_norm(self.space.Omega)):
            raise InvariantViolation(f"W not omega-isotropic ({iso:.3e})")
        span = smallest_singular_value(np.hstack([W, np.conj(W)]))
        if span <= 1e-8:
            raise NotComplementary(f"W + alpha(W) degenerate (sigma_min {span:.3e})")
        M = self.positivity_matrix()
        min_eig = float(np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min())
        if min_eig <= tol.spd_tol:
            raise NotPositive(f"positivity matrix min eigenvalue {min_eig:.3e}")
        return {"isotropy": iso, "spanning_sigma_min": span, "positivity_min_eig": min_eig}


def _oblique_structure(W: np.ndarray) -> np.ndarray:
    """i(P+ - P-) for the decomposition span(W) + span(conj(W))."""
    n = W.shape[1]
    B = np.hstack([W, np.conj(W)])
    if smallest_singular_value(B) <= 1e-10 * max(1.0, np.abs(B).max()):
        raise NotRealizable("alpha(W) does not complement W")
    D = np.diag(np.concatenate([1j * np.ones(n), -1j * np.ones(n)]))
    return B @ D @ np.linalg.inv(B)


def _require_real(Jw: np.ndarray) -> np.ndarray:
    dev = hs_norm(Jw - np.conj(Jw))
    if dev > 1e-9 * max(1.0, hs_norm(Jw)):
        raise NotRealizable(f"structure does not commute with alpha ({dev:.3e})")
    return Jw.real


def triple_from_orthogonal(
    pol: OrthogonalPolarization,
    g: BilinearForm | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> CompatibleTriple:
    """Reconstruct the compatible triple whose (+i)-eigenspace is ``pol``.

    The structure is ``J_W = i(P+ - P-)`` for the projections along
    ``W + alpha(W)``; the symplectic form follows as ``omega = g(J., .)``.

    Raises
    ------
    NotRealizable
        If alpha(W) fails to complement W, or J_W fails to be real.
    """
    if g is None:
        g = pol.space.triple.g
    pol.check()
    Jreal = _require_real(_oblique_structure(pol.wplus.matrix))
    omega = BilinearForm("antisymmetric", Jreal.T @ g.matrix)
    return CompatibleTriple(g, ComplexStructure(Jreal), omega, tol)


def triple_from_positive_symplectic(
    pol: PositiveSymplecticPolarization,
    omega: BilinearForm | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> CompatibleTriple:
    """Reconstruct the triple tamed by a positive Lagrangian ``pol``.

    Raises
    ------
    NotPositive
        If the positivity invariant fails (the polarization was
        symplectic but not positive, e.g. after swapping W and alpha(W)).
    NotRealizable
        If the induced structure is not real.
    """
    if omega is None:
        omega = pol.space.triple.omega
    pol.check(tol)
    Jreal = _require_real(_oblique_structure(pol.wplus.matrix))
    Gcand = omega.matrix @ Jreal
    g = BilinearForm("symmetric", 0.5 * (Gcand + Gcand.T))
    return CompatibleTriple(g, ComplexStructure(Jreal), omega, tol)


def hermitian_model(
    t: CompatibleTriple, v, split: EigenSplit | None = None
) -> np.ndarray:
    """Coordinates of ``(v - iJv)/sqrt(2)`` in the (+i)-eigenframe.

    The map intertwines J with multiplication by i and carries g - i omega
    to the standard Hermitian dot product of the returned coordinates.
    """
    if split is None:
        split = eigensplit(complexify(t))
    v = np.asarray(v, dtype=np.complex128)
    psi = (v - 1j * (t.Jmat @ v)) / np.sqrt(2.0)
    cplus, _ = split.coords(psi)
    return cplus[:, 0]


def hs_projection_norm(w1: Frame, w2: Frame, space: ComplexifiedSpace) -> float:
    """Hilbert-Schmidt size of the component of W1 lying across W2.

    Projects a g-orthonormal basis of W1 onto alpha(W2) along the
    decomposition W2 + alpha(W2) and returns the g-Frobenius norm of the
    result.  Zero iff W1 is the graph of the zero map over W2; finite
    always in finite dimension, and the quantity whose boundedness picks
    out a restricted-group orbit as the cutoff grows.

    Raises
    ------
    NotComplementary
        If W2 + alpha(W2) fails to span.
    RankMismatch
        If the frames are incompatible.
    """
    if w1.ambient_dim != w2.ambient_dim or w1.rank != w2.rank:
        raise RankMismatch("frames must share ambient dimension and rank")
    if w1.ambient_dim != space.dim:
        raise DimensionMismatch("frame ambient does not match the space")
    F1 = space.g_orthonormalize(w1.matrix)
    F2 = space.g_orthonormalize(w2.matrix)
    B = np.hstack([F2, np.conj(F2)])
    if smallest_singular_value(B) <= 1e-10:
        raise NotComplementary("W2 + alpha(W2) does not span")
    coords = np.linalg.solve(B, F1)
    return hs_norm(coords[w2.rank :])
