"""Truncated Fourier models on the circle and the period map of a torus.

Boson model: real trigonometric polynomials of degree <= N without
constant term, with the H^{1/2}-type metric that weights mode n by |n|.
Composition with a circle diffeomorphism acts symplectically; its paired
blocks give the (truncated) Grunsky-type operator, a Siegel disk point.

Fermion model: complex coordinates indexed by shifted (half-integer)
frequency labels 0..N, metric 2 Re sum a_n conj(b_n), J = multiplication
by i; its (+i)-eigenspace is the nonnegative-label polarization.

Mode ordering for matrices in the boson mode basis is (-N..-1, 1..N);
the zero mode is excluded throughout.
"""

from __future__ import annotations

import cmath
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AliasingRisk,
    BlockSingular,
    DimensionGuard,
    DimensionMismatch,
    FormatError,
    NotIncreasing,
    NotUpperHalf,
)
from .linalg import Frame, check_clears, check_invertible, hs_norm
from .polarization import (
    ComplexifiedSpace,
    EigenSplit,
    OrthogonalPolarization,
    complexify,
)
from .serialize import _check_keys, _entry
from .siegel import SiegelPoint, UpperHalfPoint, mobius
from .triples import CompatibleTriple, planar_triple

#: Relative sigma_min floor for the diagonal block ``a`` of a composition operator.
_BLOCK_RCOND = 1e-8
_SINGULAR_BLOCK = "diagonal block of the composition operator is singular"

#: Largest ``N * max(K, 2N)`` accepted by :func:`composition_operator`: the
#: cap bounds the quadrature's work, O(N K log K), and its (2N)^2 complex
#: result, 64 N^2 bytes (32 MiB at N = 724, the largest cutoff with the
#: default K = 16N); ``grunsky`` at N = 512 with K = 16N uses half of it.
MAX_GRID = 2**23

#: Byte budget of the quadrature's work buffer, 2 MiB = 2^17 complex
#: entries whatever the cutoff: it holds the last power formed so far and
#: the next ``max(1, QUADRATURE_BYTES // (16 K) - 1)`` powers ``w^k`` (two
#: rows, over budget, only when a row of K entries exceeds 1 MiB).
QUADRATURE_BYTES = 2 << 20


def boson_triple(N: int) -> CompatibleTriple:
    """Triple on R^2N with interleaved (x_n, y_n) coordinates, n = 1..N.

    Coordinates are cosine/sine coefficients of a real trigonometric
    polynomial without constant term.  The metric weights plane n by n/2
    (the half-derivative pairing, giving the complex modes e_{+-n}
    g-norm-squared |n|), the structure is the harmonic conjugate
    J cos = sin, J sin = -cos (so the (+i)-eigenspace is spanned by the
    negative modes), and ``omega = g(J., .)`` matches the boundary area
    pairing ``(1/2 pi) int f dg`` on each plane.
    """
    if N < 1:
        raise DimensionMismatch("N must be at least 1")
    return planar_triple(0.5 * np.arange(1, N + 1))


def mode_indices(N: int) -> list[int]:
    """Mode labels in matrix order: (-N..-1, 1..N)."""
    return list(range(-N, 0)) + list(range(1, N + 1))


def mode_position(m: int, N: int) -> int:
    if m == 0 or abs(m) > N:
        raise FormatError(f"mode {m} outside the cutoff {N}")
    return m + N if m < 0 else N + m - 1


class BosonModel:
    """The boson space at cutoff N with its mode basis and eigensplit.

    ``mode_matrix`` columns are the complex modes e_m expressed in real
    coordinates (order (-N..-1, 1..N)); the eigensplit uses the
    mode-aligned g-orthonormal frames e_{-k}/sqrt(k), which makes chart
    data directly comparable across cutoffs.
    """

    def __init__(self, N: int) -> None:
        self.N = int(N)
        self.triple = boson_triple(N)
        self.space: ComplexifiedSpace = complexify(self.triple)
        # Column for mode m: cos/sin coordinates of e^{im theta}, i.e.
        # x_{|m|} = 1, y_{|m|} = i sign(m); conjugation swaps m and -m.
        B = np.zeros((2 * N, 2 * N), dtype=np.complex128)
        for m in mode_indices(N):
            col = mode_position(m, N)
            k = abs(m)
            x, y = 2 * (k - 1), 2 * (k - 1) + 1
            B[x, col] = 1.0
            B[y, col] = 1j if m > 0 else -1j
        self.mode_matrix = B
        lplus = np.zeros((2 * N, N), dtype=np.complex128)
        for k in range(1, N + 1):
            lplus[:, k - 1] = B[:, mode_position(-k, N)] / np.sqrt(k)
        self.split = EigenSplit(self.space, lplus)

    def to_real(self, mode_op: np.ndarray) -> np.ndarray:
        """Conjugate a mode-basis operator into real coordinates."""
        B = self.mode_matrix
        return B @ mode_op @ (0.5 * B.conj().T)

    def to_modes(self, real_op: np.ndarray) -> np.ndarray:
        B = self.mode_matrix
        return (0.5 * B.conj().T) @ real_op @ B

    def omega_mode_matrix(self) -> np.ndarray:
        """Bilinear symplectic pairing in mode coordinates:
        omega(e_m, e_n) = -i m [n == -m]."""
        N = self.N
        Om = np.zeros((2 * N, 2 * N), dtype=np.complex128)
        for m in mode_indices(N):
            Om[mode_position(m, N), mode_position(-m, N)] = -1j * m
        return Om


@dataclass(frozen=True, eq=False)
class CircleDiffeo:
    """An orientation-preserving diffeomorphism ``t -> phi(t)`` of the circle.

    ``boundary`` returns ``exp(i phi(t))``, the quantity quadratures
    consume; it needs no branch of the angle ``phi`` (exact for Mobius
    maps, avoiding branch cuts entirely).
    """

    kind: str
    params: dict
    boundary: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)

    def check_increasing(self) -> None:
        """Validate strict monotonicity on a uniform grid of 1024 points.

        Raises NotIncreasing when the lifted angle fails to increase.
        """
        theta = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
        _check_steps(self.boundary(theta), f"{self.kind} map is not strictly increasing")


def _check_steps(w: np.ndarray, what: str) -> None:
    """Raise NotIncreasing unless the lifted angle of ``w`` rises at every step."""
    steps = np.diff(np.unwrap(np.angle(w)))
    if steps.size:
        check_clears(float(steps.min()), 0.0, 0.0, NotIncreasing, f"{what}: smallest step")


def rotation_diffeo(delta: float) -> CircleDiffeo:
    delta = float(delta)
    return CircleDiffeo(
        kind="rotation",
        params={"delta": delta},
        boundary=lambda t: np.exp(1j * (np.asarray(t) + delta)),
    )


def mobius_diffeo(a: complex) -> CircleDiffeo:
    """Disk automorphism ``z -> (z - a)/(1 - conj(a) z)`` on the boundary."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise FormatError(f"|a| must be < 1, got {abs(a):.6f}")

    def boundary(t):
        z = np.exp(1j * np.asarray(t, dtype=float))
        return (z - a) / (1.0 - np.conj(a) * z)

    return CircleDiffeo(kind="mobius", params={"a": a}, boundary=boundary)


def fourier_flow_diffeo(coeffs: Sequence[tuple[int, float]]) -> CircleDiffeo:
    """``phi(t) = t + sum amp * sin(k t)``; needs sum |k amp| < 1."""
    coeffs = [(int(k), float(amp)) for k, amp in coeffs]
    if any(k < 1 for k, _ in coeffs):
        raise FormatError("flow frequencies must be positive")

    def phi(t):
        t = np.asarray(t, dtype=float)
        out = t.astype(float).copy()
        for k, amp in coeffs:
            out = out + amp * np.sin(k * t)
        return out

    diffeo = CircleDiffeo(
        kind="fourier_flow",
        params={"coeffs": coeffs},
        boundary=lambda t: np.exp(1j * phi(t)),
    )
    diffeo.check_increasing()
    return diffeo


def compose_diffeos(outer: CircleDiffeo, inner: CircleDiffeo) -> CircleDiffeo:
    """The diffeomorphism ``t -> outer(inner(t))``."""

    def boundary(t):
        # outer's boundary value is 2 pi periodic in its angle argument,
        # so any branch of inner's angle works pointwise.
        return outer.boundary(np.angle(inner.boundary(np.asarray(t, dtype=float))))

    return CircleDiffeo(
        kind="compose",
        params={"outer": outer.kind, "inner": inner.kind},
        boundary=boundary,
    )


#: The one parameter key each diffeo kind takes besides ``kind`` (``diffeo.v1``).
_DIFFEO_KEYS = {"rotation": "delta", "mobius": "a", "fourier_flow": "coeffs"}


def diffeo_from_spec(spec: dict) -> CircleDiffeo:
    """Build a diffeomorphism from its JSON description (``diffeo.v1``).

    Raises FormatError for an unknown kind, a missing or foreign key, or an
    entry of the wrong type.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise FormatError("diffeo spec must be an object with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _DIFFEO_KEYS:
        raise FormatError(f"unknown diffeo kind {kind!r}")
    key = _DIFFEO_KEYS[kind]
    _check_keys(spec, ("kind", key))
    value = spec[key]
    if kind == "rotation":
        real = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (real and abs(value) <= sys.float_info.max):
            raise FormatError(f"delta must be a finite number, got {value!r}")
        return rotation_diffeo(value)
    if kind == "mobius":
        if not cmath.isfinite(a := _entry(value)):
            raise FormatError(f"a must be finite, got {value!r}")
        return mobius_diffeo(a)
    if not isinstance(value, list):
        raise FormatError(f"coeffs must be a list of [k, amp] pairs, got {value!r}")
    for pair in value:
        if not cmath.isfinite(_entry(pair)) or not isinstance(pair[0], int):
            raise FormatError(f"coeffs need finite [k, amp] pairs with integer k, got {pair!r}")
    return fourier_flow_diffeo(value)


def composition_operator(phi: CircleDiffeo, N: int, K: int | None = None) -> np.ndarray:
    """Matrix of ``f -> f o phi`` on modes (-N..-1, 1..N) by quadrature.

    Entry (m, n) is the m-th Fourier coefficient of ``exp(i n phi)``,
    computed with the K-point uniform (trapezoid) rule: column n is the
    FFT of the sampled power ``w^n`` (``w = exp(i phi)`` on the grid)
    divided by K and read at ``m mod K``.  The powers ``w^1..w^N`` are
    formed one row at a time, each the row before times ``w``, and
    transformed one block of rows at a time, in a buffer of
    :data:`QUADRATURE_BYTES`; each block continues from the last power of
    the one before, so every block size gives the same products.  Since
    ``w`` lies on the unit circle, ``w^-n = conj(w^n)`` and the negative
    columns are read off the same spectra as ``C[m, -n] = conj(C[-m, n])``.
    K defaults to 16 N; a warning is emitted below 8 N where aliasing
    becomes a risk.

    Raises
    ------
    DimensionGuard
        If ``N * max(K, 2N)`` exceeds ``MAX_GRID``; checked before the grid
        is built.
    NotIncreasing
        If phi fails strict monotonicity on the quadrature grid.
    """
    if N < 1:
        raise DimensionMismatch("N must be at least 1")
    if K is None:
        K = 16 * N
    K = int(K)
    if K < 1:
        raise DimensionMismatch("K must be at least 1")
    if N * max(K, 2 * N) > MAX_GRID:
        raise DimensionGuard(
            f"cutoff {N} with quadrature {K} needs {N * max(K, 2 * N)} grid entries, "
            f"above the cap {MAX_GRID}"
        )
    if K < 8 * N:
        warnings.warn(
            f"K={K} below 8N={8 * N}: quadrature may alias", AliasingRisk, stacklevel=2
        )
    theta = 2.0 * np.pi * np.arange(K) / K
    w = phi.boundary(theta)
    _check_steps(w, "phi is not strictly increasing on the quadrature grid")
    rows = np.array(mode_indices(N)) % K
    C = np.empty((2 * N, 2 * N), dtype=np.complex128)
    # column N + k - 1: coefficients (in mode order) of w^k, k = 1..N; row 0
    # of the buffer carries the last power of the block before (w^0 = 1 at first)
    step = max(1, QUADRATURE_BYTES // (16 * K) - 1)
    block = np.empty((min(step, N) + 1, K), dtype=np.complex128)
    block[0] = 1.0
    for start in range(0, N, step):
        n = min(step, N - start)
        for r in range(1, n + 1):
            np.multiply(block[r - 1], w, out=block[r])
        C[:, N + start : N + start + n] = np.fft.fft(block[1 : n + 1], axis=1)[:, rows].T
        block[0] = block[n]
    positive = C[:, N:]
    positive /= K
    # w^-k = conj(w^k) on the circle, so C[m, -k] = conj(C[-m, k]): the
    # mode order is symmetric, and both axes reverse
    np.conjugate(positive[::-1, ::-1], out=C[:, :N])
    return C


@dataclass(frozen=True, eq=False)
class CompositionBlocks:
    """Raw paired blocks (a, b) of a truncated composition operator.

    Hard truncation loses the Fourier mass that a near-cutoff mode
    spreads past the cutoff, so the exact relation ``a* a - b* b = I``
    only holds band-limited: ``identity_residual(M)`` measures it on the
    lowest M modes and decays as the cutoff grows past M.  The full-
    corner deviation ``identity_residual(N)`` is O(1) by design and is
    reported, not hidden.
    """

    a: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def identity_residual(self, M: int | None = None) -> float:
        M = self.n if M is None else int(M)
        D = self.a.conj().T @ self.a - self.b.conj().T @ self.b - np.eye(self.n)
        return hs_norm(D[:M, :M])

    def transform(self, Z: np.ndarray) -> np.ndarray:
        """Disk action :func:`polargrass.siegel.mobius` of the raw blocks."""
        return mobius(self.a, self.b, Z, 1e-10, BlockSingular, "transform denominator is singular")


def composition_blocks(phi: CircleDiffeo, N: int, K: int | None = None) -> CompositionBlocks:
    """Paired blocks of the truncated composition operator.

    In the g-normalised modes ``e_{-k}/sqrt(k)`` of the boson eigensplit the
    blocks are ``a[j, k] = C[-j, -k] sqrt(j/k)`` and ``b[j, k] = C[j, -k]
    sqrt(j/k)`` (j, k = 1..N) for ``C = composition_operator(phi, N, K)``:
    slices of C under a diagonal rescale.  They equal the leading column
    blocks of C taken to real coordinates and compressed into the eigensplit
    of ``BosonModel(N)``, without that route's 2N x 2N products.

    Raises
    ------
    BlockSingular
        If the diagonal block is numerically singular.
    """
    C = composition_operator(phi, N, K)
    root = np.sqrt(np.arange(1.0, N + 1.0))
    scale = root[:, None] / root[None, :]
    a = C[N - 1::-1, N - 1::-1] * scale
    b = C[N:, N - 1::-1] * scale
    check_invertible(a, _BLOCK_RCOND, BlockSingular, _SINGULAR_BLOCK)
    return CompositionBlocks(a, b)


#: Relative symmetry budget of a Grunsky point, which carries quadrature and
#: truncation error.
GRUNSKY_SYMMETRY_TOL = 1e-6


def grunsky(phi: CircleDiffeo, N: int, K: int | None = None) -> SiegelPoint:
    """Grunsky-type Siegel point of a circle diffeomorphism at cutoff N.

    ``Z = b a^{-1}`` for the paired blocks of the composition operator;
    symmetric up to quadrature/truncation error (relative
    ``GRUNSKY_SYMMETRY_TOL``) and a strict contraction, vanishing (to
    quadrature accuracy) for Mobius maps, which preserve the polarization.

    Raises
    ------
    BlockSingular
        If the diagonal block is singular (pathological input).
    """
    blocks = composition_blocks(phi, N, K)
    # composition_blocks has already guarded a against singularity
    Z = np.linalg.solve(blocks.a.T, blocks.b.T).T
    return SiegelPoint(Z, atol=GRUNSKY_SYMMETRY_TOL)


def fermion_triple(N: int) -> CompatibleTriple:
    """Triple on R^{2(N+1)} for labels 0..N (shifted half-integer
    frequencies); metric 2I, J(u, v) = (-v, u), omega = g(J., .)."""
    if N < 0:
        raise DimensionMismatch("N must be at least 0")
    return planar_triple(np.full(N + 1, 2.0))


def fermion_polarization(N: int) -> OrthogonalPolarization:
    """The nonnegative-label polarization of the fermion model."""
    t = fermion_triple(N)
    space = complexify(t)
    dim = 2 * (N + 1)
    cols = np.zeros((dim, N + 1), dtype=np.complex128)
    for k in range(N + 1):
        cols[2 * k, k] = 1.0 / np.sqrt(2.0)
        cols[2 * k + 1, k] = -1j / np.sqrt(2.0)
    return OrthogonalPolarization(space, Frame(cols))


@dataclass(frozen=True)
class TorusPeriodReport:
    tau: complex
    period_a: complex
    period_b: complex
    point: UpperHalfPoint

    @property
    def residuals(self) -> dict[str, float]:
        return {
            "a_period": abs(self.period_a - 1.0),
            "b_period": abs(self.period_b - self.tau),
        }


def torus_period(tau: complex) -> TorusPeriodReport:
    """Period point of the lattice (1, tau) from explicit cycle integrals.

    Integrates the a-normalized harmonic forms ``eta_1 = dx - (tau_1/tau_2) dy``
    and ``eta_2 = dy / tau_2`` over the straight cycles 0 -> 1 and
    0 -> tau, then evaluates the holomorphic combination
    ``beta = eta_1 + tau eta_2`` whose b-period is the returned point.

    Raises
    ------
    NotUpperHalf
        If Im tau <= 0.
    """
    tau = complex(tau)
    if not np.isfinite(tau.real) or not np.isfinite(tau.imag):
        raise FormatError("tau must be finite")
    t1, t2 = tau.real, tau.imag
    if t2 <= 0.0:
        raise NotUpperHalf(f"Im tau = {t2:.6f} is not positive")

    def integrate(form_xy: tuple[complex, complex], delta: tuple[float, float]) -> complex:
        return form_xy[0] * delta[0] + form_xy[1] * delta[1]

    eta1 = (1.0, -t1 / t2)
    eta2 = (0.0, 1.0 / t2)
    cycle_a, cycle_b = (1.0, 0.0), (t1, t2)
    period_a = integrate(eta1, cycle_a) + tau * integrate(eta2, cycle_a)
    period_b = integrate(eta1, cycle_b) + tau * integrate(eta2, cycle_b)
    return TorusPeriodReport(tau, period_a, period_b, UpperHalfPoint(np.array([[period_b]])))
