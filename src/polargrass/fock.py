"""Finite-dimensional Clifford algebras acting on fermionic Fock spaces.

An isotropic half ``W`` of a complexified inner-product space generates,
by wedge creation on its exterior algebra, a representation of the
Clifford relation ``v.w + w.v = g(v, alpha(w)) 1``.  At ``n`` modes the
Fock space is ``2^n``-dimensional with basis indexed by subsets of the
mode set, so every operator is an explicit sparse matrix and the
anticommutation relations can be checked exhaustively instead of
symbolically.

Conventions
-----------
* Basis index ``m`` is the bitmask of the subset ``{k : bit k of m}``;
  the monomial is ``w_{k_1} ^ w_{k_2} ^ ...`` with modes ascending, and
  the vacuum is index 0.
* Creation of mode ``k`` inserts into the sorted word with sign
  ``(-1)^{#occupied modes below k}``; annihilation is its adjoint.
* The pairing on the right-hand side of the relation is the *bilinear*
  one, ``g(v, alpha(w)) = v^T G w`` (no factor of 2; the frame is
  g-orthonormalized at build time so cross pairs come out to 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DimensionGuard, DimensionMismatch, InvariantViolation
from .linalg import freeze
from .polarization import (
    ComplexifiedSpace,
    OrthogonalPolarization,
    hs_projection_norm,
)

__all__ = [
    "MAX_MODES",
    "FockSpace",
    "FockRep",
    "creation_matrix",
    "build_fock",
    "car_check",
    "adjoint_residual",
    "generator_residuals",
    "vacuum_cyclicity_rank",
    "equivalence_certificate",
]

#: Largest mode count accepted by :func:`build_fock`.  ``fock-car`` checks
#: exhaustively: ``n(2n+1)`` products of ``2^n``-square sparse matrices and
#: ``2^n`` creation words, so its cost grows like ``n^2 2^n``; at the cap one
#: call takes about half a second on a 2-vCPU machine.
MAX_MODES = 12


@dataclass(frozen=True)
class FockSpace:
    """Exterior algebra of an ``n``-mode space with the subset basis."""

    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_MODES:
            raise DimensionGuard(
                f"mode count {self.n} outside [0, {MAX_MODES}]"
            )

    @property
    def dim(self) -> int:
        return 1 << self.n

    def subset(self, index: int) -> tuple[int, ...]:
        """Ascending mode tuple named by a basis index."""
        if not 0 <= index < self.dim:
            raise DimensionMismatch(f"basis index {index} outside [0, {self.dim})")
        return tuple(k for k in range(self.n) if index >> k & 1)

    def index_of(self, modes) -> int:
        """Basis index of a subset given as an iterable of distinct modes."""
        mask = 0
        for k in modes:
            bit = 1 << int(k)
            if not 0 <= int(k) < self.n or mask & bit:
                raise DimensionMismatch(f"bad mode subset {tuple(modes)}")
            mask |= bit
        return mask

    @property
    def vacuum(self) -> np.ndarray:
        vac = np.zeros(self.dim, dtype=np.complex128)
        vac[0] = 1.0
        return vac


def creation_matrix(n: int, k: int) -> sparse.csr_matrix:
    """Wedge insertion of mode ``k`` on the subset basis at ``n`` modes.

    Entry ``[m | 1<<k, m] = (-1)^{popcount(m & ((1<<k)-1))}`` whenever
    mode ``k`` is absent from ``m``; all other entries vanish.  Squares
    to zero and raises subset cardinality by exactly one.
    """
    if not 0 <= k < n:
        raise DimensionMismatch(f"mode {k} outside [0, {n})")
    dim = 1 << n
    bit = 1 << k
    cols = np.array([m for m in range(dim) if not m & bit], dtype=np.int64)
    rows = cols | bit
    signs = np.array(
        [-1.0 if (int(m) & (bit - 1)).bit_count() % 2 else 1.0 for m in cols]
    )
    return sparse.csr_matrix(
        (signs.astype(np.complex128), (rows, cols)), shape=(dim, dim)
    )


@dataclass(frozen=True)
class FockRep:
    """Creation/annihilation matrices for a g-orthonormal frame of W.

    ``creation[k]`` wedges the k-th frame vector; ``annihilation[k]`` is
    its exact adjoint and represents the conjugate frame vector.  The
    linear extension :meth:`represent` sends any ambient vector
    ``v = W p + conj(W) q`` to ``sum p_k creation[k] + q_k annihilation[k]``.

    As built by :func:`build_fock`, every ``creation[k]`` is a signed
    partial permutation (entries 0 or +-1, at most one per row and
    column); :func:`vacuum_cyclicity_rank` relies on this and raises if a
    hand-built representation breaks it.
    """

    space: FockSpace
    ambient: ComplexifiedSpace
    frame: np.ndarray
    creation: tuple = field(repr=False)
    annihilation: tuple = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "frame", freeze(self.frame))

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def vacuum(self) -> np.ndarray:
        return self.space.vacuum

    def coordinates(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Components of ``v`` along the frame and its conjugate.

        With ``F`` g-orthonormal and bilinearly isotropic, pairing against
        conjugated and plain frame columns inverts ``v = F p + conj(F) q``:
        ``p = F* G v`` and ``q = F^T G v``.
        """
        v = np.asarray(v, dtype=np.complex128)
        if v.shape != (self.ambient.dim,):
            raise DimensionMismatch(
                f"vector shape {v.shape} != ({self.ambient.dim},)"
            )
        Gv = self.ambient.G @ v
        return self.frame.conj().T @ Gv, self.frame.T @ Gv

    def represent(self, v: np.ndarray) -> sparse.csr_matrix:
        """Clifford action of an arbitrary ambient vector."""
        p, q = self.coordinates(v)
        out = sparse.csr_matrix((self.dim, self.dim), dtype=np.complex128)
        for k in range(self.n):
            out = out + p[k] * self.creation[k] + q[k] * self.annihilation[k]
        return out


def build_fock(pol: OrthogonalPolarization) -> FockRep:
    """Fock representation generated by an orthogonal polarization.

    The polarization frame is g-orthonormalized first, so the cross
    pairings ``g(w_j, alpha(w_k))`` equal the identity and the frame
    anticommutators land exactly on ``delta_{jk}``.

    Raises
    ------
    DimensionGuard
        If the polarization has more than ``MAX_MODES`` modes.
    """
    n = pol.wplus.rank
    if n > MAX_MODES:
        raise DimensionGuard(f"{n} modes exceeds the cap {MAX_MODES}")
    frame = pol.space.g_orthonormalize(pol.wplus.matrix)
    creation = tuple(creation_matrix(n, k) for k in range(n))
    annihilation = tuple(c.conj().T.tocsr() for c in creation)
    return FockRep(FockSpace(n), pol.space, frame, creation, annihilation)


def _frobenius(mat: sparse.spmatrix) -> float:
    return float(np.sqrt(np.sum(np.abs(mat.data) ** 2))) if mat.nnz else 0.0


def car_check(rep: FockRep, v: np.ndarray, w: np.ndarray) -> float:
    """Residual of ``pi(v) pi(w) + pi(w) pi(v) = g(v, alpha(w)) 1``."""
    pv = rep.represent(v)
    pw = rep.represent(w)
    pairing = complex(np.asarray(v) @ rep.ambient.G @ np.asarray(w))
    anti = pv @ pw + pw @ pv - pairing * sparse.identity(
        rep.dim, dtype=np.complex128, format="csr"
    )
    return _frobenius(anti)


def adjoint_residual(rep: FockRep, y: np.ndarray) -> float:
    """Deviation of ``pi(y)`` from ``pi(alpha(y))*``."""
    lhs = rep.represent(y)
    rhs = rep.represent(np.conj(np.asarray(y))).conj().T
    return _frobenius((lhs - rhs).tocsr())


def generator_residuals(rep: FockRep) -> tuple[float, float]:
    """Worst CAR and adjoint residuals over the frame generators.

    The generators are the frame vectors ``f_k`` and their conjugates,
    ordered so that generator ``k + n`` is ``conj(f_k)``.  Each is
    represented once.  The anticommutator and the pairing are symmetric,
    so each unordered pair is formed once; the adjoint of generator ``k``
    is compared with the stored representation of generator ``k + n``.
    Agrees with the maxima of :func:`car_check` over all ordered pairs
    and of :func:`adjoint_residual` over all generators.
    """
    n = rep.n
    gens = np.concatenate([rep.frame, np.conj(rep.frame)], axis=1).T
    reps = [rep.represent(g) for g in gens]
    pairing = gens @ rep.ambient.G @ gens.T
    one = sparse.identity(rep.dim, dtype=np.complex128, format="csr")
    car = max(
        _frobenius(reps[i] @ reps[j] + reps[j] @ reps[i] - pairing[i, j] * one)
        for i in range(2 * n)
        for j in range(i, 2 * n)
    )
    adjoint = max(
        _frobenius((reps[k] - reps[k + n].conj().T).tocsr()) for k in range(n)
    )
    return car, adjoint


def vacuum_cyclicity_rank(rep: FockRep) -> int:
    """Rank of the span of iterated creations applied to the vacuum.

    Cyclicity means the rank equals ``2^n``.  The vector of the creation
    word ``m`` (modes applied in descending order) is built from that of
    its prefix by one matvec, ``vec[m] = creation[low] @ vec[m ^ low]``
    with ``low`` the lowest set bit of ``m``.  Since every creation
    matrix is a signed partial permutation, each vector is exactly a
    unit multiple of one basis vector, and the rank is exactly the
    number of distinct supports; only the support and the unit are
    kept, never the ``2^n``-square family.

    Raises
    ------
    InvariantViolation
        If some word's vector is not a unit multiple of one basis vector,
        which a representation from :func:`build_fock` never gives.
    """
    # the empty word leaves the vacuum, basis vector 0
    support = np.zeros(rep.dim, dtype=np.int64)
    unit = np.ones(rep.dim, dtype=np.complex128)
    prefix = np.zeros(rep.dim, dtype=np.complex128)
    for m in range(1, rep.dim):
        low = m & -m
        prev = m ^ low
        prefix[support[prev]] = unit[prev]
        vec = rep.creation[low.bit_length() - 1] @ prefix
        prefix[support[prev]] = 0.0
        nonzero = np.flatnonzero(vec)
        if nonzero.size != 1 or abs(vec[nonzero[0]]) != 1.0:
            raise InvariantViolation(
                f"creation word {m} does not map the vacuum to a unit basis vector"
            )
        support[m] = nonzero[0]
        unit[m] = vec[nonzero[0]]
    return int(np.unique(support).size)


def equivalence_certificate(pol1: OrthogonalPolarization, pol2: OrthogonalPolarization) -> dict:
    """Quantitative comparison of two polarizations of the same space.

    Reports the Hilbert-Schmidt size of the block of ``W1`` lying across
    ``alpha(W2)``.  In finite dimension every pair of Fock
    representations is equivalent, so the norm is the informative part:
    tracked along a family of growing cutoffs it distinguishes pairs that
    stay within a restricted orbit from pairs that drift apart.
    """
    if pol1.space.dim != pol2.space.dim:
        raise DimensionMismatch(
            f"ambient dims differ: {pol1.space.dim} vs {pol2.space.dim}"
        )
    return {"hs_norm": hs_projection_norm(pol1.wplus, pol2.wplus, pol1.space)}
