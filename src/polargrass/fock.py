"""Finite-dimensional Clifford algebras acting on fermionic Fock spaces.

An isotropic half ``W`` of a complexified inner-product space generates,
by wedge creation on its exterior algebra, a representation of the
Clifford relation ``v.w + w.v = g(v, alpha(w)) 1``.  At ``n`` modes the
Fock space is ``2^n``-dimensional with basis indexed by subsets of the
mode set.  Every creation and annihilation operator is a signed partial
permutation of that basis: column ``m`` goes to row ``m ^ (1 << k)`` or
nowhere.  A :class:`FockOperator` stores that flip and one coefficient
per column.

The representation is linear in the ambient vector, so the relation
holds for every vector once it holds for the ``2n`` basis operators and
the coordinates of the generators pair correctly.  :func:`basis_residuals`
checks it that way: the basis relations exactly, as integer sign
vectors, and the coordinate identity in floating point.  The reference
represents generators as dense matrices (:meth:`FockRep.represent`) and
forms their pairwise products (:func:`car_check`,
:func:`adjoint_residual`); it is for small mode counts, at most 10.

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

from .errors import DimensionGuard, DimensionMismatch, InvariantViolation
from .linalg import freeze
from .polarization import (
    ComplexifiedSpace,
    OrthogonalPolarization,
    across_norm,
    hs_projection_norm,
)

__all__ = [
    "BASIS_BYTES",
    "MAX_MODES",
    "basis_bytes",
    "check_modes",
    "FockSpace",
    "FockOperator",
    "FockRep",
    "creation_matrix",
    "build_fock",
    "car_check",
    "adjoint_residual",
    "basis_residuals",
    "vacuum_cyclicity_rank",
    "equivalence_certificate",
]

#: Byte budget for the coefficients of the ``2n`` basis operators, each a
#: complex128 vector of length ``2^n``, that :func:`build_fock` stores, and
#: for one dense matrix of :meth:`FockRep.represent`.
BASIS_BYTES = 32 << 20


def basis_bytes(n: int) -> int:
    """Bytes of the ``2n`` basis operators' coefficients at ``n`` modes."""
    return 2 * n * (1 << n) * np.dtype(np.complex128).itemsize


#: Largest mode count whose basis operators fit :data:`BASIS_BYTES`: 16.
#: ``fock-car`` holds these operators and integer copies of them, memory
#: like ``n 2^n``, and checks their relations in integer work like
#: ``n^2 2^n``; one fermion-model call takes about 0.5 s at the cap on a
#: 2-vCPU machine.
MAX_MODES = max(n for n in range(64) if basis_bytes(n) <= BASIS_BYTES)


def check_modes(n: int) -> None:
    """Raise :class:`DimensionGuard` if ``n`` modes exceed the byte budget."""
    if n > MAX_MODES:
        # the exact count of a huge request would itself be a huge integer
        need = f"{basis_bytes(n)} bytes" if n < 64 else "over 2^64 bytes"
        raise DimensionGuard(
            f"{n} modes need {need} of basis coefficients, above the budget of "
            f"{BASIS_BYTES} bytes (cap {MAX_MODES} modes)"
        )


@dataclass(frozen=True)
class FockSpace:
    """Exterior algebra of an ``n``-mode space with the subset basis."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DimensionGuard(f"mode count {self.n} is negative")
        check_modes(self.n)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def index_of(self, modes) -> int:
        """Basis index of a subset given as an iterable of distinct integer modes."""
        try:
            modes = tuple(modes)
        except TypeError:
            raise DimensionMismatch(f"mode subset {modes!r} is not iterable") from None
        mask = 0
        for k in modes:
            if (
                isinstance(k, bool)
                or not isinstance(k, (int, np.integer))
                or not 0 <= k < self.n
                or mask >> int(k) & 1
            ):
                raise DimensionMismatch(f"bad mode subset {modes}")
            mask |= 1 << int(k)
        return mask

    @property
    def vacuum(self) -> np.ndarray:
        vac = np.zeros(self.dim, dtype=np.complex128)
        vac[0] = 1.0
        return vac


@dataclass(frozen=True, eq=False)
class FockOperator:
    """A partial permutation of the ``2^n``-dimensional subset basis,
    scaled column by column.

    Column ``j`` holds ``coef[j]`` at row ``j ^ flip``, and nothing where
    the coefficient is zero.  A creation or annihilation operator has
    ``flip = 1 << k`` and coefficients 0 or +-1: a signed partial
    permutation.
    """

    flip: int
    coef: np.ndarray

    def __post_init__(self) -> None:
        coef = np.asarray(self.coef, dtype=np.complex128)
        if coef.ndim != 1:
            raise DimensionMismatch(f"coef {coef.shape} must be (dim,)")
        dim = coef.size
        if isinstance(self.flip, bool) or not isinstance(self.flip, (int, np.integer)):
            raise DimensionMismatch(f"flip {self.flip!r} is not an integer")
        if dim < 1 or dim & (dim - 1) or not 0 <= self.flip < dim:
            raise DimensionMismatch(f"dim {dim} is not a power of two holding flip {self.flip}")
        object.__setattr__(self, "coef", freeze(coef))

    @property
    def dim(self) -> int:
        return self.coef.size

    def _rows(self) -> np.ndarray:
        """``rows[j] = j ^ flip``; XOR with the flip is an involution."""
        return np.arange(self.dim) ^ self.flip

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        out[self._rows(), np.arange(self.dim)] = self.coef
        return out

    @property
    def H(self) -> FockOperator:
        """Conjugate transpose: the same flip, with the coefficients read at
        the partner columns ``j ^ flip``."""
        return FockOperator(self.flip, np.conj(self.coef[self._rows()]))

    def __matmul__(self, x):
        """Product with a vector of length ``dim``: row ``r`` reads column
        ``r ^ flip``."""
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"vector shape {x.shape} != ({self.dim},)")
        rows = self._rows()
        return self.coef[rows] * x[rows]


def creation_matrix(n: int, k: int) -> FockOperator:
    """Wedge insertion of mode ``k`` on the subset basis at ``n`` modes.

    Column ``m`` holds ``(-1)^{popcount(m & ((1<<k)-1))}`` at row
    ``m | 1<<k`` whenever mode ``k`` is absent from ``m``, and nothing
    otherwise.  Squares to zero and raises subset cardinality by exactly
    one.
    """
    if not 0 <= k < n:
        raise DimensionMismatch(f"mode {k} outside [0, {n})")
    bit = 1 << k
    cols = np.arange(1 << n)
    parity = np.zeros_like(cols)
    for j in range(k):
        parity ^= cols >> j & 1
    free = cols & bit == 0
    return FockOperator(bit, np.where(free, 1.0 - 2.0 * parity, 0.0))


@dataclass(frozen=True, eq=False)
class FockRep:
    """Creation/annihilation operators for a g-orthonormal frame of W.

    ``creation[k]`` wedges the k-th frame vector; ``annihilation[k]`` is
    its exact adjoint and represents the conjugate frame vector.  The
    linear extension :meth:`represent` sends any ambient vector
    ``v = W p + conj(W) q`` to the dense matrix
    ``sum p_k creation[k] + q_k annihilation[k]``.

    As built by :func:`build_fock`, every ``creation[k]`` is a signed
    partial permutation (entries 0 or +-1, at most one per row and
    column); :func:`basis_residuals` and :func:`vacuum_cyclicity_rank`
    rely on this and raise if a hand-built representation breaks it.
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

    def represent(self, v: np.ndarray) -> np.ndarray:
        """Dense matrix ``sum p_k creation[k] + q_k annihilation[k]`` of the
        Clifford action of an ambient vector with coordinates ``(p, q)``.

        Raises
        ------
        DimensionGuard
            If the ``2^n``-square complex matrix exceeds :data:`BASIS_BYTES`
            (above 10 modes), before it is allocated.
        """
        size = self.dim * self.dim * np.dtype(np.complex128).itemsize
        if size > BASIS_BYTES:
            raise DimensionGuard(
                f"a dense operator at {self.n} modes needs {size} bytes, above the "
                f"budget of {BASIS_BYTES} bytes"
            )
        p, q = self.coordinates(v)
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        cols = np.arange(self.dim)
        for c, op in zip(np.concatenate([p, q]), self.creation + self.annihilation):
            out[cols ^ op.flip, cols] += c * op.coef
        return out


def build_fock(pol: OrthogonalPolarization) -> FockRep:
    """Fock representation generated by an orthogonal polarization.

    The frame is the polarization's g-orthonormal ``gframe``, so the cross
    pairings ``g(w_j, alpha(w_k))`` equal the identity and the frame
    anticommutators land exactly on ``delta_{jk}``.

    Raises
    ------
    DimensionGuard
        If the polarization has more than ``MAX_MODES`` modes, before any
        operator is built.
    """
    n = pol.wplus.rank
    check_modes(n)
    frame = pol.gframe
    creation = tuple(creation_matrix(n, k) for k in range(n))
    annihilation = tuple(c.H for c in creation)
    return FockRep(FockSpace(n), pol.space, frame, creation, annihilation)


def car_check(rep: FockRep, v: np.ndarray, w: np.ndarray) -> float:
    """Residual of ``pi(v) pi(w) + pi(w) pi(v) = g(v, alpha(w)) 1``."""
    pv = rep.represent(v)
    pw = rep.represent(w)
    anti = pv @ pw + pw @ pv
    anti[np.diag_indices(rep.dim)] -= np.asarray(v) @ rep.ambient.G @ np.asarray(w)
    return float(np.linalg.norm(anti))


def adjoint_residual(rep: FockRep, y: np.ndarray) -> float:
    """Deviation of ``pi(y)`` from ``pi(alpha(y))*``."""
    lhs = rep.represent(y)
    rhs = rep.represent(np.conj(np.asarray(y))).conj().T
    return float(np.linalg.norm(lhs - rhs))


def _basis_name(i: int, n: int) -> str:
    return f"creation[{i}]" if i < n else f"annihilation[{i - n}]"


def _basis_signs(rep: FockRep) -> np.ndarray:
    """The ``2n`` basis operators, ``creation`` then ``annihilation``, as
    rows of signs; each must be of the space's ``dim``, at flip ``1 << k``,
    with entries 0 or +-1 only."""
    n = rep.n
    signs = np.empty((2 * n, rep.dim), dtype=np.int8)
    for i, op in enumerate(rep.creation + rep.annihilation):
        fits = op.dim == rep.dim and op.flip == 1 << i % n
        if fits:
            # the cast keeps a coefficient only if it is a small integer
            signs[i] = op.coef.real
        if (
            not fits
            or not np.array_equal(signs[i], op.coef)
            or signs[i].min() < -1
            or signs[i].max() > 1
        ):
            raise InvariantViolation(
                f"{_basis_name(i, n)} is not a signed permutation at flip {1 << i % n}"
            )
    return signs


def basis_residuals(rep: FockRep) -> tuple[float, float]:
    """Worst CAR and adjoint residuals over the frame generators, from
    the basis operators and the generators' coordinates.

    :meth:`FockRep.represent` is linear, so with coordinates ``P = F* G X``
    and ``Q = F^T G X`` of the generators ``X = [F, conj F]`` (generator
    ``k + n`` is ``conj(f_k)``) the anticommutator of generators
    ``i`` and ``j`` is ``sum_ab C_ai C_bj {A_a, A_b}`` for the basis
    operators ``A = creation + annihilation`` and ``C = [P; Q]``.  Three
    checks reduce it to a number:

    1. The basis relations, exactly: ``{A_a, A_b}`` is 1 for the partner
       pairs ``(k, k + n)`` and 0 otherwise.  With ``S_a`` the signs of
       ``A_a`` and ``f_a`` its flip, ``(A_a A_b)[x] = S_a[x ^ f_b] S_b[x]``,
       so one gather per row ``a`` forms its anticommutators with every
       ``b >= a``.  The entries are integers and the gate is ``== 0``,
       with no threshold.
    2. The basis adjoint ``annihilation[k] == creation[k].H``, exactly.
    3. The coordinate identity ``P^T Q + Q^T P = X^T G X``.  Given 1, the
       generator defect is ``D_ij 1`` for its defect ``D``, with Frobenius
       norm ``|D_ij| 2^{n/2}`` on the ``2^n``-dimensional space: the
       returned CAR residual.  Given 2, the adjoint defect of generator
       ``i`` is ``sum_a d_ai A_a``, where ``d`` is ``C`` minus the
       conjugated ``[Q; P]`` of the partner generator.  Distinct basis
       operators never share an entry, so its norm is
       ``sqrt(sum_a |d_ai|^2 nnz(A_a))``: the returned adjoint residual.

    Agrees to rounding with the maxima of :func:`car_check` over all
    ordered pairs of generators and of :func:`adjoint_residual` over all
    generators, which multiply dense ``2^n``-square matrices.  What this
    certifies: the basis relations hold exactly, and the coordinate
    identity reduces to the frame being g-orthonormal and bilinearly
    isotropic, which :class:`~polargrass.polarization.Polarization`
    already gates.  It is not a second, independent route to the
    representation; it forms no product of represented generators.

    Raises
    ------
    InvariantViolation
        If a basis operator is not a signed permutation at flip
        ``1 << k``, or the basis relations or adjoints fail anywhere.
    """
    n = rep.n
    signs = _basis_signs(rep)
    # rows[a, x] = x ^ f_a, with f_a = f_{a + n} = 1 << a % n
    rows = np.arange(rep.dim) ^ (1 << np.arange(2 * n) % n)[:, None]
    for i in range(2 * n):
        # row i of the symmetric table of anticommutators, from column i on;
        # int8 holds the entries -2..2
        anti = signs[i][rows[i:]] * signs[i:] + signs[i:, rows[i]] * signs[i]
        if i < n:
            anti[n] -= 1  # the partner annihilation[i]
        bad = np.flatnonzero(np.any(anti, axis=1))
        if bad.size:
            raise InvariantViolation(
                f"basis CAR fails for {_basis_name(i, n)} and {_basis_name(i + int(bad[0]), n)}"
            )
    adjoint_of_creation = np.take_along_axis(signs[:n], rows[:n], 1)
    bad = np.flatnonzero(np.any(signs[n:] != adjoint_of_creation, axis=1))
    if bad.size:
        raise InvariantViolation(f"annihilation[{bad[0]}] is not creation[{bad[0]}].H")

    gens = np.concatenate([rep.frame, np.conj(rep.frame)], axis=1)
    Ggens = rep.ambient.G @ gens
    P, Q = rep.frame.conj().T @ Ggens, rep.frame.T @ Ggens
    defect = P.T @ Q + Q.T @ P - gens.T @ Ggens
    car = float(np.abs(defect).max(initial=0.0) * np.sqrt(rep.dim))
    coords = np.concatenate([P, Q])
    swapped = np.concatenate([Q, P])[:, np.roll(np.arange(2 * n), n)]
    weight = np.count_nonzero(signs, axis=1)
    adjoint = np.sqrt(weight @ np.abs(coords - np.conj(swapped)) ** 2)
    return car, float(adjoint.max(initial=0.0))


def vacuum_cyclicity_rank(rep: FockRep) -> int:
    """Rank of the span of iterated creations applied to the vacuum.

    Cyclicity means the rank equals ``2^n``.  The vector of the creation
    word ``m`` (modes applied in descending order) is ``creation[k]``
    applied to the vector of its prefix ``m ^ (1 << k)``, with ``k`` the
    lowest mode of ``m``.  Taking ``k`` from ``n - 1`` down to 0, every
    prefix is done before its words, so all the words of one ``k`` are
    one gather from the columns of ``creation[k]``.  Since every
    creation operator is a signed partial permutation, each vector is
    exactly a unit multiple of one basis vector, and the rank is exactly
    the number of distinct supports; only the support and the unit are
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
    for k in range(rep.n - 1, -1, -1):
        words = np.arange(1 << k, rep.dim, 2 << k)
        prev = words ^ (1 << k)
        op = rep.creation[k]
        source = support[prev]
        vals = op.coef[source] * unit[prev]
        bad = np.abs(vals) != 1.0
        if np.any(bad):
            raise InvariantViolation(
                f"creation word {words[bad][0]} does not map the vacuum to a unit basis vector"
            )
        support[words] = source ^ op.flip
        unit[words] = vals
    return int(np.count_nonzero(np.bincount(support, minlength=rep.dim)))


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
    if pol2.space is pol1.space:
        # both cached frames are g-orthonormal for the one metric
        return {"hs_norm": across_norm(pol1.gframe, pol2.gframe)}
    return {"hs_norm": hs_projection_norm(pol1.wplus, pol2.wplus, pol1.space)}
