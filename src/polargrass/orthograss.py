"""Chart atlas for the Grassmannian of orthogonal polarizations.

Charts are indexed by subsets S of {1..n}: the chart center W_S keeps the
paired basis vector e_j for j outside S and swaps in its conjugate e_{-j}
for j in S.  A polarization inside the chart is the graph of an
antisymmetric matrix over W_S.  A chart change S1 -> S2 is the principal
pivot transform of Z on S1 delta S2: it keeps the rows of Z on the slots
whose pairing agrees between the centers and takes rows of the identity on
the slots it swaps.  Charts of different parity of |S| lie in the two
components of the Grassmannian and never overlap.  Orthogonal maps compress
to ``PairedBlocks`` of sign -1 (``siegel.block_decompose(u, split, -1)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable

import numpy as np

from .errors import DimensionMismatch, FormatError, NoPairing, OutsideChart
from .linalg import Frame, as_matrix, check_clears, check_invertible, hs_norm, right_divide
from .polarization import EigenSplit, OrthogonalPolarization
from .siegel import SignedMatrix, chart_slots, chart_solve, graph_columns, numerical_rank, split_frame

PAIRING_THRESHOLD = 1e-10


@dataclass(frozen=True, eq=False)
class OrthoGraphOperator(SignedMatrix):
    """Antisymmetric chart coordinate (Z^T = -Z)."""

    sign: ClassVar[int] = -1


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


def chart_polarization(
    split: EigenSplit, S: ChartIndex, Z: OrthoGraphOperator
) -> OrthogonalPolarization:
    """The orthogonal polarization with chart coordinates (S, Z)."""
    cols = graph_columns(split, Z.Z, S.indices)
    return OrthogonalPolarization(split.space, Frame.from_columns(cols))


@dataclass(frozen=True)
class FindChartResult:
    S: ChartIndex
    Z: OrthoGraphOperator
    kernel_dims: tuple[int, ...]


def _wplus_columns(w, split: EigenSplit) -> np.ndarray:
    return split.space.g_orthonormalize(split_frame(w, split).matrix)


def find_chart(w, split: EigenSplit) -> FindChartResult:
    """Locate a chart containing the polarization ``w``.

    Starting from S = {} the projection of W onto W_S is tested for a
    kernel by one SVD per stage (:func:`polargrass.siegel.chart_solve`,
    which also solves for Z once there is none); each kernel vector
    selects (by largest pairing component) an index l whose swap strictly
    shrinks the kernel.  At most n swaps are
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
        kernel, x = chart_solve(dual, Fw, S.indices)
        kernel_dims.append(kernel)
        if kernel == 0:
            return FindChartResult(S, OrthoGraphOperator(x, atol=1e-8), tuple(kernel_dims))
        v = Fw @ x
        candidates = [l for l in range(1, n + 1) if l not in S]
        scores = np.array([abs(dual[n + l - 1] @ v) for l in candidates])
        check_clears(float(scores.max(initial=0.0)), PAIRING_THRESHOLD, 0.0, NoPairing,
                     "kernel vector pairs with no admissible index: best pairing")
        S = ChartIndex.of(S.indices + (candidates[int(scores.argmax())],))
    raise NoPairing("chart search failed to terminate")  # pragma: no cover


def _pivot(S1: ChartIndex, S2: ChartIndex, Z: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(keep, N, D)`` of the chart change at Z: on the rows ``keep`` marks,
    the slots whose pairing agrees between W_S1 and W_S2, N takes the rows
    of Z and D those of I; on the swapped rows the other way round.  Charts
    of different parity are refused (``OutsideChart``): no point of one
    component of the Grassmannian lies in a chart of the other."""
    n = Z.shape[0]
    keep = (chart_slots(n, S1.indices)[0] == chart_slots(n, S2.indices)[0])[:, None]
    if S1.parity() != S2.parity():
        raise OutsideChart(f"target chart {S2.indices} lies in the other component")
    eye = np.eye(n)
    return keep, np.where(keep, Z, eye), np.where(keep, eye, Z)


def transition(S1: ChartIndex, S2: ChartIndex, Z1: OrthoGraphOperator) -> OrthoGraphOperator:
    """Chart change ``Z1 -> N D^{-1}`` with N and D of :func:`_pivot`, the
    principal pivot transform of Z1 on the swapped slots.  For S1 = S2 the
    map is the identity.

    Raises
    ------
    DimensionMismatch
        If either chart names an index outside 1..``Z1.n``.
    OutsideChart
        If the point lies outside the target chart (singular
        denominator); always the case when |S1| and |S2| have different
        parity, which is refused before any solve.
    """
    _, num, den = _pivot(S1, S2, Z1.Z)
    Z2 = right_divide(num, den, 1e-10, OutsideChart,
                      f"target chart {S2.indices} does not contain the point")
    return OrthoGraphOperator(Z2, atol=max(Z1.atol, 1e-10))


def transition_derivative(
    S1: ChartIndex, S2: ChartIndex, Z1: OrthoGraphOperator, direction
) -> np.ndarray:
    """Directional (Gateaux) derivative of the chart change at Z1.

    For ``Psi(Z) = N D^{-1}`` (:func:`transition`) the derivative in
    direction W is ``[K W - Psi(Z1) (I - K) W] D^{-1}``, K the projection
    onto the kept slots; complex-linearity in W is what
    :func:`holomorphy_check` verifies numerically.
    """
    W = as_matrix(direction, square=True)
    if W.shape[0] != Z1.n:
        raise DimensionMismatch("direction size does not match the point")
    keep, num, den = _pivot(S1, S2, Z1.Z)
    check_invertible(den, 1e-10, OutsideChart,
                     f"target chart {S2.indices} does not contain the point")
    psi = np.linalg.solve(den.T, num.T).T
    return np.linalg.solve(den.T, (keep * W - (psi * ~keep.T) @ W).T).T


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
    ra, rb, rab = (numerical_rank(np.linalg.svd(M, compute_uv=False))
                   for M in (A, B, np.hstack([A, B])))
    return ra + rb - rab


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
