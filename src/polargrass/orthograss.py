"""Chart atlas for the Grassmannian of orthogonal polarizations.

Charts are indexed by subsets S of {1..n}: the chart center W_S keeps the
paired basis vector e_j for j outside S and swaps in its conjugate e_{-j}
for j in S.  A polarization inside the chart is the graph of an
antisymmetric matrix over W_S.  Chart changes act by fractional linear
maps whose (a, b, c, d) blocks are 0/1 selection matrices; overlaps are
constrained by the parity of |S| (the two components of the
Grassmannian), so transitions between charts of different parity are
always singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    FormatError,
    InvariantViolation,
    NoPairing,
    NotOrthogonal,
    OutsideChart,
    ProjectionSingular,
)
from .linalg import (
    DEFAULT_TOL,
    Frame,
    Tolerances,
    as_matrix,
    check_symmetry,
    freeze,
    hs_norm,
    op_norm,
    right_divide,
)
from .polarization import EigenSplit, OrthogonalPolarization

KERNEL_THRESHOLD = 1e-8
PAIRING_THRESHOLD = 1e-10


@dataclass(frozen=True)
class OrthoGraphOperator:
    """Antisymmetric chart coordinate (Z^T = -Z)."""

    Z: np.ndarray
    atol: float = field(default=1e-10, compare=False)

    def __post_init__(self) -> None:
        Z = as_matrix(self.Z, square=True)
        check_symmetry(Z, -1.0, self.atol, InvariantViolation, "Z not antisymmetric")
        object.__setattr__(self, "Z", freeze(Z))

    @property
    def n(self) -> int:
        return self.Z.shape[0]


@dataclass(frozen=True)
class ChartIndex:
    """A sorted subset of {1..n} naming a chart center."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(sorted(set(int(i) for i in self.indices)))
        if len(idx) != len(self.indices):
            raise FormatError("chart indices must be distinct")
        if idx and idx[0] < 1:
            raise FormatError("chart indices are 1-based positive integers")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, indices: Iterable[int]) -> "ChartIndex":
        return cls(tuple(indices))

    def __contains__(self, j: int) -> bool:
        return j in self.indices

    def __len__(self) -> int:
        return len(self.indices)

    def parity(self) -> int:
        return len(self.indices) % 2


def _column_slots(S: ChartIndex, n: int) -> np.ndarray:
    """Column index into the paired basis for each chart slot j=1..n."""
    if len(S) and S.indices[-1] > n:
        raise DimensionMismatch(f"chart index {S.indices[-1]} exceeds n={n}")
    return np.array([(n + j - 1) if j in S else (j - 1) for j in range(1, n + 1)])


def chart_frame(split: EigenSplit, S: ChartIndex) -> np.ndarray:
    """g-orthonormal columns of the chart center W_S."""
    return split.basis[:, _column_slots(S, split.n)]


def chart_graph_columns(split: EigenSplit, S: ChartIndex, Z: OrthoGraphOperator) -> np.ndarray:
    """Columns spanning the graph of Z over W_S."""
    slots = _column_slots(S, split.n)
    perp = np.array([(s + split.n) % (2 * split.n) for s in slots])
    return split.basis[:, slots] + split.basis[:, perp] @ Z.Z


def chart_polarization(
    split: EigenSplit, S: ChartIndex, Z: OrthoGraphOperator
) -> OrthogonalPolarization:
    """The orthogonal polarization with chart coordinates (S, Z)."""
    cols = chart_graph_columns(split, S, Z)
    return OrthogonalPolarization(split.space, Frame.from_columns(cols))


@dataclass(frozen=True)
class FindChartResult:
    S: ChartIndex
    Z: OrthoGraphOperator
    kernel_dims: tuple[int, ...]


def _wplus_columns(w, split: EigenSplit) -> np.ndarray:
    frame = w.wplus if isinstance(w, OrthogonalPolarization) else w
    if frame.ambient_dim != 2 * split.n or frame.rank != split.n:
        raise DimensionMismatch("frame shape does not match the split")
    return split.space.g_orthonormalize(frame.matrix)


def find_chart(w, split: EigenSplit) -> FindChartResult:
    """Locate a chart containing the polarization ``w``.

    Starting from S = {} the projection of W onto W_S is tested for a
    kernel; each kernel vector selects (by largest pairing component) an
    index l whose swap strictly shrinks the kernel.  At most n swaps are
    needed.  The returned ``kernel_dims`` records the kernel dimension at
    every stage including the final zero.

    Raises
    ------
    NoPairing
        If a kernel vector pairs with no admissible index above 1e-10
        (numerically degenerate input).
    """
    Fw = _wplus_columns(w, split)
    n = split.n
    dual = split.dual
    S = ChartIndex.of(())
    kernel_dims: list[int] = []
    for _ in range(n + 1):
        slots = _column_slots(S, n)
        C = dual[slots] @ Fw
        svals = np.linalg.svd(C, compute_uv=False)
        kernel = int(np.sum(svals <= KERNEL_THRESHOLD * max(1.0, svals.max())))
        kernel_dims.append(kernel)
        if kernel == 0:
            perp = np.array([(s + n) % (2 * n) for s in slots])
            cm = dual[perp] @ Fw
            Z = right_divide(cm, C, KERNEL_THRESHOLD, ProjectionSingular,
                             "projection onto the chart center is singular")
            return FindChartResult(S, OrthoGraphOperator(Z, atol=1e-8), tuple(kernel_dims))
        _, _, vh = np.linalg.svd(C)
        v = Fw @ vh[-1].conj()
        candidates = [l for l in range(1, n + 1) if l not in S]
        scores = np.array([abs(dual[n + l - 1] @ v) for l in candidates])
        if scores.max(initial=0.0) <= PAIRING_THRESHOLD:
            raise NoPairing("kernel vector pairs with no admissible index")
        S = ChartIndex.of(S.indices + (candidates[int(scores.argmax())],))
    raise NoPairing("chart search failed to terminate")  # pragma: no cover


def _transition_blocks(S1: ChartIndex, S2: ChartIndex, n: int):
    same = np.array([1.0 if ((j in S1) == (j in S2)) else 0.0 for j in range(1, n + 1)])
    a = np.diag(same)
    b = np.diag(1.0 - same)
    return a, b, b.copy(), a.copy()


def transition(S1: ChartIndex, S2: ChartIndex, Z1: OrthoGraphOperator) -> OrthoGraphOperator:
    """Chart change ``Z1 -> (c + d Z1)(a + b Z1)^{-1}``.

    The blocks are diagonal 0/1 matrices recording which slots keep or
    swap their pairing between the two centers; for S1 = S2 the map is
    the identity.

    Raises
    ------
    OutsideChart
        If the point lies outside the target chart (singular
        denominator); always the case when |S1| and |S2| have different
        parity.
    """
    n = Z1.n
    a, b, c, d = _transition_blocks(S1, S2, n)
    den = a + b @ Z1.Z
    Z2 = right_divide(c + d @ Z1.Z, den, 1e-10, OutsideChart,
                      f"target chart {S2.indices} does not contain the point")
    return OrthoGraphOperator(Z2, atol=max(Z1.atol, 1e-10))


def transition_derivative(
    S1: ChartIndex, S2: ChartIndex, Z1: OrthoGraphOperator, direction
) -> np.ndarray:
    """Directional (Gateaux) derivative of the chart change at Z1.

    For the fractional linear map with blocks (a, b, c, d) the derivative
    in direction W is ``[d W - Psi(Z1) b W] (a + b Z1)^{-1}`` with
    ``Psi(Z1) = (c + d Z1)(a + b Z1)^{-1}``; complex-linearity in W is
    what :func:`holomorphy_check` verifies numerically.
    """
    W = as_matrix(direction, square=True)
    n = Z1.n
    if W.shape[0] != n:
        raise DimensionMismatch("direction size does not match the point")
    a, b, c, d = _transition_blocks(S1, S2, n)
    den = a + b @ Z1.Z
    what = f"target chart {S2.indices} does not contain the point"
    psi = right_divide(c + d @ Z1.Z, den, 1e-10, OutsideChart, what)
    return right_divide(d @ W - psi @ b @ W, den, 1e-10, OutsideChart, what)


@dataclass(frozen=True)
class HolomorphyReport:
    fd_residual: float
    cr_residual: float
    step: float

    @property
    def max_residual(self) -> float:
        return max(self.fd_residual, self.cr_residual)


def holomorphy_check(
    S1: ChartIndex,
    S2: ChartIndex,
    Z1: OrthoGraphOperator,
    direction,
    step: float = 1e-5,
) -> HolomorphyReport:
    """Compare the analytic derivative with central differences.

    ``fd_residual`` is the gap between the analytic Gateaux derivative
    and a central difference with the given step; ``cr_residual`` checks
    complex-linearity (the Cauchy-Riemann condition) by differencing
    along ``i * direction`` and comparing with i times the difference
    along ``direction``.
    """
    W = as_matrix(direction, square=True)

    def psi_at(Zm: np.ndarray) -> np.ndarray:
        return transition(S1, S2, OrthoGraphOperator(Zm, atol=1e-6)).Z

    analytic = transition_derivative(S1, S2, Z1, W)
    Z = Z1.Z
    diff = (psi_at(Z + step * W) - psi_at(Z - step * W)) / (2 * step)
    diff_i = (psi_at(Z + 1j * step * W) - psi_at(Z - 1j * step * W)) / (2 * step)
    return HolomorphyReport(
        fd_residual=hs_norm(diff - analytic),
        cr_residual=hs_norm(diff_i - 1j * diff),
        step=step,
    )


def _intersection_dim(A: np.ndarray, B: np.ndarray) -> int:
    def rank(M: np.ndarray) -> int:
        svals = np.linalg.svd(M, compute_uv=False)
        return int(np.sum(svals > KERNEL_THRESHOLD * max(1.0, svals.max())))

    return rank(A) + rank(B) - rank(np.hstack([A, B]))


@dataclass(frozen=True)
class IndexReport:
    dim_ker: int
    dim_coker: int

    @property
    def index(self) -> int:
        return self.dim_ker - self.dim_coker


def fredholm_index(w, split: EigenSplit) -> IndexReport:
    """Kernel and cokernel dimensions of the projection W -> L+.

    The kernel is W intersected with alpha(L+), the cokernel pairs with
    alpha(W) intersected with L+; in finite dimension the two dimensions
    agree (index zero), and their parity labels the component of the
    Grassmannian containing W.
    """
    Fw = _wplus_columns(w, split)
    dim_ker = _intersection_dim(Fw, split.lminus)
    dim_coker = _intersection_dim(np.conj(Fw), split.lplus)
    return IndexReport(dim_ker, dim_coker)


@dataclass(frozen=True)
class OrthoBlocks:
    """Blocks of a compressed orthogonal map w.r.t. L+ and L-.

    ``a, b`` map into L+ (from L+, L- respectively), ``c, d`` into L-.
    For real inputs ``b = conj(c)`` and ``d = conj(a)``; the compressed
    matrix is unitary.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    atol: float = field(default=1e-9, compare=False)

    def __post_init__(self) -> None:
        M = np.block([[self.a, self.b], [self.c, self.d]])
        dev_u = hs_norm(M.conj().T @ M - np.eye(M.shape[0]))
        dev_pair = max(hs_norm(self.b - np.conj(self.c)), hs_norm(self.d - np.conj(self.a)))
        if dev_u > self.atol * max(1.0, hs_norm(M)):
            raise InvariantViolation(f"compressed map not unitary ({dev_u:.3e})")
        if dev_pair > self.atol * max(1.0, hs_norm(M)):
            raise InvariantViolation(f"blocks not alpha-paired ({dev_pair:.3e})")
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, freeze(as_matrix(getattr(self, name), square=True)))


@dataclass(frozen=True)
class OrthoBlockReport:
    blocks: OrthoBlocks
    hs_b: float
    hs_c: float
    dim_ker_a: int


def ortho_block_check(u, split: EigenSplit, tol: Tolerances = DEFAULT_TOL) -> OrthoBlockReport:
    """Compress a real g-orthogonal map and report its off-diagonal data.

    ``hs_b = hs_c`` measures how far u is from preserving the splitting;
    the diagonal block a is recorded with its kernel dimension (its
    Fredholm index is always zero in finite dimension).

    Raises
    ------
    NotOrthogonal
        If u fails to preserve the metric.
    """
    u = as_matrix(u, square=True)
    G = split.space.G
    dev = hs_norm(u.T @ G @ u - G)
    if dev > tol.eq_tol * max(1.0, op_norm(u) ** 2) * max(1.0, hs_norm(G)):
        raise NotOrthogonal(f"metric preservation fails by {dev:.3e}")
    M = split.compress(u)
    n = split.n
    blocks = OrthoBlocks(M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:])
    svals = np.linalg.svd(blocks.a, compute_uv=False)
    dim_ker = int(np.sum(svals <= KERNEL_THRESHOLD * max(1.0, svals.max())))
    return OrthoBlockReport(
        blocks=blocks,
        hs_b=hs_norm(blocks.b),
        hs_c=hs_norm(blocks.c),
        dim_ker_a=dim_ker,
    )
