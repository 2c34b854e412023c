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
* A polarization is a half-dimensional W with ``C^2n = W + alpha(W)``,
  isotropic for ``space.form(sign)``: Omega for ``sign = 1`` (positive
  symplectic) and G for ``sign = -1`` (orthogonal).  Its structure
  ``J_W = i(P+ - P-)`` and the form its setting fixes complete it back to
  a triple (:func:`triple_from_polarization`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

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
    check_clears,
    check_within,
    freeze,
    hs_norm,
    min_eig_hermitian,
    smallest_singular_value,
    sqrt_pair_hermitian,
)
from .triples import (
    CompatibleTriple,
    ComplexStructure,
    complete_from_g_J,
    complete_from_J_omega,
    standard_triple,
)


@dataclass(frozen=True, eq=False)
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

    def form(self, sign: int) -> np.ndarray:
        """The form a polarization of ``sign`` is isotropic for: Omega for
        1 (symplectic), G for -1 (orthogonal)."""
        return self.Omega if sign > 0 else self.G

    def gram(self, cols: np.ndarray) -> np.ndarray:
        """Sesquilinear Gram matrix of a column family."""
        return cols.conj().T @ self.G @ cols

    def g_orthonormalize(self, cols: np.ndarray) -> np.ndarray:
        """Return columns spanning the same space, orthonormal for g."""
        gram = self.gram(cols)
        low = np.linalg.cholesky(0.5 * (gram + gram.conj().T))
        return np.linalg.solve(low, cols.T.conj()).conj().T


def complexify(t: CompatibleTriple) -> ComplexifiedSpace:
    """Extend a triple to its complexification, checking the extended
    pairing identities.

    The sesquilinear metric and bilinear symplectic form satisfy
    ``g(v, w) = omega(v, J alpha(w))`` and ``omega(v, w) = g(Jv, alpha(w))``
    for complex vectors, which is to say ``G = Omega J`` and
    ``Omega = J^T G``; a violation means the inputs were inconsistent.  The
    residuals are read from ``t.report``, under a budget not moved by ``eq_tol``.
    """
    space = ComplexifiedSpace(t)
    scale = max(hs_norm(t.G), hs_norm(t.Omega))
    for name in ("g_from_omega_J", "omega_from_g_J"):
        check_within(t.report.residuals[name], 1e-10 * space.dim, scale, InvariantViolation,
                     f"extension identity {name} fails")
    return space


@dataclass(frozen=True, eq=False)
class EigenSplit:
    """The alpha-paired eigenbasis of J: columns of ``lplus`` span the
    (+i)-eigenspace, ``lminus = conj(lplus)`` the (-i)-eigenspace.

    Both blocks are g-orthonormal, so ``dual @ basis = I`` with
    ``basis = [lplus | lminus]`` and ``dual = basis^* G``; compressing an
    operator T as ``dual @ T @ basis`` expresses it in paired coordinates.
    The gates keep ``eigenvector_residual = ||J lplus - i lplus||`` and
    ``gram_residual = ||lplus^* G lplus - I||``.
    """

    space: ComplexifiedSpace
    lplus: np.ndarray
    eigenvector_residual: float = field(init=False, compare=False, repr=False)
    gram_residual: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        J = self.space.triple.Jmat
        L = freeze(np.asarray(self.lplus, dtype=np.complex128))
        object.__setattr__(self, "lplus", L)
        eig = check_within(hs_norm(J @ L - 1j * L), 1e-9, hs_norm(J), EigenspaceDimension,
                           "columns not in the +i eigenspace")
        gram = check_within(hs_norm(self.space.gram(L) - np.eye(self.n)), 1e-9, 0.0,
                            InvariantViolation, "eigenframe not g-orthonormal")
        object.__setattr__(self, "eigenvector_residual", eig)
        object.__setattr__(self, "gram_residual", gram)

    @property
    def n(self) -> int:
        return self.lplus.shape[1]

    @property
    def lminus(self) -> np.ndarray:
        return np.conj(self.lplus)

    @cached_property
    def basis(self) -> np.ndarray:
        """``[lplus | lminus]``, formed once (read-only)."""
        return freeze(np.hstack([self.lplus, self.lminus]))

    @cached_property
    def dual(self) -> np.ndarray:
        """``basis^* G``, formed once (read-only)."""
        return freeze(self.basis.conj().T @ self.space.G)

    def compress(self, T) -> np.ndarray:
        """Matrix of T in the paired eigencoordinates."""
        T = as_matrix(T, square=True)
        return self.dual @ T @ self.basis


def eigensplit(space: ComplexifiedSpace, tol: Tolerances = DEFAULT_TOL) -> EigenSplit:
    """Diagonalize the structure J of the space's triple into its
    (+-i)-eigenspaces with a g-orthonormal alpha-paired basis.

    Raises
    ------
    EigenspaceDimension
        If the two eigenspaces do not split the dimension in half.
    """
    J = space.triple.Jmat
    # K J K^{-1} with K = G^{1/2} is skew-Hermitian, so -i K J K^{-1} is
    # Hermitian and diagonalizable with real eigenvalues (= +-1 here).
    K, Kinv = sqrt_pair_hermitian(space.G, tol)
    A = K @ (-1j * J) @ Kinv
    eigvals, eigvecs = np.linalg.eigh(0.5 * (A + A.conj().T))
    dev = hs_norm(np.abs(eigvals) - 1.0)
    check_within(dev, 1e-8 * space.dim, 0.0, EigenspaceDimension, "J eigenvalues deviate from +-i")
    pos = eigvals > 0
    if int(pos.sum()) != space.dim // 2:
        raise EigenspaceDimension(
            f"+i eigenspace has dimension {int(pos.sum())}, expected {space.dim // 2}"
        )
    lplus = Kinv @ eigvecs[:, pos]
    return EigenSplit(space, lplus)


@lru_cache(maxsize=8)
def standard_split(n: int) -> EigenSplit:
    """``eigensplit(complexify(standard_triple(n)))``, built and gated once
    per rank and shared: the split the chart atlas of rank ``n`` lives on.

    Every array reachable from it is read-only.  The cache keeps the eight
    most recent ranks; one split with its triple, space, ``basis`` and
    ``dual`` holds about ``450 n^2`` bytes (460 kB at n = 32).
    """
    return eigensplit(complexify(standard_triple(n)))


@dataclass(frozen=True, eq=False)
class Polarization:
    """A half-dimensional subspace W of C^2n, isotropic for the form of its
    setting (``space.form(sign)``), with ``C^2n = W + alpha(W)``.

    The base checks the frame shape and isotropy; each setting adds its
    own gates in :meth:`_gates`.  ``gframe`` holds the g-orthonormal
    columns of W, computed once.
    """

    sign: ClassVar[int]
    space: ComplexifiedSpace
    wplus: Frame

    def __post_init__(self) -> None:
        dim, frame = self.space.dim, self.wplus
        if frame.ambient_dim != dim:
            raise DimensionMismatch(f"frame ambient {frame.ambient_dim} != space dim {dim}")
        if 2 * frame.rank != dim:
            raise RankMismatch(f"polarization needs rank {dim // 2}, got {frame.rank}")
        self.check()

    @cached_property
    def gframe(self) -> np.ndarray:
        """Columns spanning W, orthonormal for g (read-only)."""
        return freeze(self.space.g_orthonormalize(self.wplus.matrix))

    def check(self) -> dict[str, float]:
        """Isotropy and the setting's own residuals; raises on violation."""
        W = self.wplus.matrix
        form = self.space.form(self.sign)
        what = "W not omega-isotropic" if self.sign > 0 else "W not g-isotropic"
        iso = check_within(hs_norm(W.T @ form @ W), 1e-9, hs_norm(form), InvariantViolation, what)
        return {"isotropy": iso, **self._gates()}

    def _gates(self) -> dict[str, float]:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class OrthogonalPolarization(Polarization):
    """A g-isotropic polarization.

    Isotropy is for the *bilinear* extension of g, which is the same as
    W being g-orthogonal to alpha(W) for the sesquilinear metric.
    """

    sign: ClassVar[int] = -1

    def _gates(self) -> dict[str, float]:
        Fg = self.gframe
        proj = Fg @ (Fg.conj().T @ self.space.G)
        dim = self.space.dim
        span = hs_norm(proj + np.conj(proj) - np.eye(dim))
        check_within(span, 1e-9 * dim, 0.0, NotComplementary, "W + alpha(W) does not span")
        return {"spanning": span}


@dataclass(frozen=True, eq=False)
class PositiveSymplecticPolarization(Polarization):
    """An omega-Lagrangian polarization on which ``-i omega(v, alpha(v))``
    is positive (margin ``DEFAULT_TOL.spd_tol``)."""

    sign: ClassVar[int] = 1

    def positivity_matrix(self) -> np.ndarray:
        W = self.wplus.matrix
        return -1j * W.T @ self.space.Omega @ np.conj(W)

    def _gates(self) -> dict[str, float]:
        W = self.wplus.matrix
        span = smallest_singular_value(np.hstack([W, np.conj(W)]))
        check_clears(span, 1e-8, 0.0, NotComplementary, "W + alpha(W) degenerate: sigma_min")
        min_eig = min_eig_hermitian(self.positivity_matrix())
        check_clears(min_eig, DEFAULT_TOL.spd_tol, 0.0, NotPositive, "positivity min eigenvalue")
        return {"spanning_sigma_min": span, "positivity_min_eig": min_eig}


def triple_from_polarization(pol: Polarization) -> CompatibleTriple:
    """Reconstruct the compatible triple whose (+i)-eigenspace is ``pol``.

    The structure is ``J_W = i(P+ - P-)`` for the projections along
    ``W + alpha(W)``.  It completes with the form the setting fixes: the
    metric of an orthogonal polarization (:func:`complete_from_g_J`) or the
    symplectic form of a positive one (:func:`complete_from_J_omega`).

    Every :class:`Polarization` gated ``W + alpha(W)`` at construction, so
    ``B = [W, conj(W)]`` is invertible and no second gate is taken: a
    positive polarization requires ``sigma_min(B) > 1e-8`` directly, and for
    an orthogonal one the spanning residual ``eps`` bounds ``sigma_min(B)``
    below by ``(1 - eps) / (2 sqrt(cond(G)))`` (the g-orthogonal projector
    onto W has norm at most ``sqrt(cond(G))``), which the degeneracy gate of
    the metric keeps above ``5e-7``.

    Raises
    ------
    NotRealizable
        If J_W fails to be real.
    NotSkewAdjoint, NotSkewSymmetric
        If J_W and the fixed form do not complete to a triple.
    """
    W = pol.wplus.matrix
    n = W.shape[1]
    B = np.hstack([W, np.conj(W)])
    Jw = np.linalg.solve(B.T, (B * np.concatenate([1j * np.ones(n), -1j * np.ones(n)])).T).T
    dev = hs_norm(Jw - np.conj(Jw))
    check_within(dev, 1e-9, hs_norm(Jw), NotRealizable, "structure does not commute with alpha")
    J = ComplexStructure(Jw.real)
    triple = pol.space.triple
    if pol.sign < 0:
        return complete_from_g_J(triple.g, J)
    return complete_from_J_omega(J, triple.omega)


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
    return across_norm(space.g_orthonormalize(w1.matrix), space.g_orthonormalize(w2.matrix))


def across_norm(F1: np.ndarray, F2: np.ndarray) -> float:
    """:func:`hs_projection_norm` of the spans of two g-orthonormal frames
    of equal shape, such as two polarizations' ``gframe`` in one space.

    Raises
    ------
    NotComplementary
        If the span of F2 and its conjugate is not the whole space.
    """
    B = np.hstack([F2, np.conj(F2)])
    check_clears(smallest_singular_value(B), 1e-10, 0.0, NotComplementary, "W2 + alpha(W2) singular")
    coords = np.linalg.solve(B, F1)
    return hs_norm(coords[F2.shape[1] :])
