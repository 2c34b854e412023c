"""Fourier circle models: mode bases, composition operators, Grunsky data,
fermion model, torus periods."""

import time

import numpy as np
import pytest

from polargrass.circle import (
    MAX_GRID,
    BosonModel,
    CircleDiffeo,
    CompositionBlocks,
    boson_triple,
    compose_diffeos,
    composition_blocks,
    composition_operator,
    diffeo_from_spec,
    fermion_polarization,
    fermion_triple,
    fourier_flow_diffeo,
    grunsky,
    mobius_diffeo,
    mode_indices,
    mode_position,
    rotation_diffeo,
    torus_period,
)
from polargrass.errors import (
    AliasingRisk,
    BlockSingular,
    DimensionGuard,
    DimensionMismatch,
    FormatError,
    NotIncreasing,
    NotUpperHalf,
)
from polargrass.linalg import hs_norm, op_norm
from polargrass.triples import verify_triple


class TestBosonTriple:
    def test_block_values(self):
        # plane k carries metric weight k/2, the conjugate rotation, and
        # symplectic weight k/2
        t = boson_triple(3)
        G, J, Om = t.g.matrix, t.Jmat, t.omega.matrix
        assert G[0, 0] == 0.5 and G[1, 1] == 0.5
        assert G[4, 4] == 1.5 and G[5, 5] == 1.5
        assert J[0, 1] == -1.0 and J[1, 0] == 1.0
        assert Om[2, 3] == 1.0 and Om[3, 2] == -1.0  # k = 2: weight 1
        assert Om[4, 5] == 1.5

    def test_compatible(self):
        t = boson_triple(4)
        rep = verify_triple(t.g, t.J, t.omega)
        assert rep.max_residual <= 1e-14

    def test_cutoff_floor(self):
        with pytest.raises(DimensionMismatch):
            boson_triple(0)


class TestModeBasis:
    def test_mode_position(self):
        # order (-N..-1, 1..N) at N = 3
        assert [mode_position(m, 3) for m in mode_indices(3)] == list(range(6))
        with pytest.raises(FormatError):
            mode_position(0, 3)
        with pytest.raises(FormatError):
            mode_position(4, 3)

    def test_half_adjoint_inverse(self):
        # each column has squared length 2, so B^{-1} = B^H / 2
        model = BosonModel(3)
        B = model.mode_matrix
        assert hs_norm(0.5 * B.conj().T @ B - np.eye(6)) <= 1e-14

    def test_metric_pairs_opposite_modes(self):
        # bilinear extension: G(e_m, e_n) = |m| [n == -m]
        model = BosonModel(3)
        B = model.mode_matrix
        Gm = B.T @ model.triple.g.matrix @ B
        for m in mode_indices(3):
            for n in mode_indices(3):
                expected = abs(m) if n == -m else 0.0
                assert abs(Gm[mode_position(m, 3), mode_position(n, 3)] - expected) <= 1e-14

    def test_omega_mode_matrix(self):
        # omega(e_m, e_n) = -i m [n == -m], and it matches the conjugated
        # real form
        model = BosonModel(3)
        B = model.mode_matrix
        assert hs_norm(B.T @ model.triple.omega.matrix @ B - model.omega_mode_matrix()) <= 1e-13
        Om = model.omega_mode_matrix()
        assert Om[mode_position(2, 3), mode_position(-2, 3)] == -2j

    def test_structure_diagonalizes(self):
        # J e_m = -i sign(m) e_m: negative modes span the (+i)-eigenspace
        model = BosonModel(3)
        Jm = model.to_modes(model.triple.Jmat.astype(complex))
        signs = np.array([-1j * np.sign(m) for m in mode_indices(3)])
        assert hs_norm(Jm - np.diag(signs)) <= 1e-14

    def test_split_frame_is_scaled_negative_modes(self):
        model = BosonModel(3)
        for k in range(1, 4):
            col = model.mode_matrix[:, mode_position(-k, 3)] / np.sqrt(k)
            assert np.allclose(model.split.lplus[:, k - 1], col)

    def test_real_mode_round_trip(self, rng):
        model = BosonModel(3)
        X = rng.normal(size=(6, 6))
        assert hs_norm(model.to_modes(model.to_real(X)) - X) <= 1e-13


class TestDiffeos:
    def test_rotation_boundary(self):
        phi = rotation_diffeo(0.5)
        assert np.allclose(phi.boundary(0.0), np.exp(0.5j))

    def test_mobius_boundary_on_circle(self):
        phi = mobius_diffeo(0.3 + 0.2j)
        t = np.linspace(0, 2 * np.pi, 17)
        assert np.allclose(np.abs(phi.boundary(t)), 1.0)

    def test_mobius_zero_is_identity(self):
        phi = mobius_diffeo(0.0)
        t = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        assert np.allclose(phi.boundary(t), np.exp(1j * t))

    def test_mobius_parameter_bound(self):
        with pytest.raises(FormatError):
            mobius_diffeo(1.0)
        with pytest.raises(FormatError):
            mobius_diffeo(0.8 + 0.7j)

    def test_flow_frequency_positive(self):
        with pytest.raises(FormatError):
            fourier_flow_diffeo([(0, 0.1)])

    def test_flow_monotonicity_enforced(self):
        # phi(t) = t + 1.2 sin t has phi'(pi) = -0.2
        with pytest.raises(NotIncreasing):
            fourier_flow_diffeo([(1, 1.2)])

    def test_compose_rotations(self):
        phi = compose_diffeos(rotation_diffeo(0.2), rotation_diffeo(0.3))
        t = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        assert np.allclose(phi.boundary(t), np.exp(1j * (t + 0.5)))

    def test_from_spec(self):
        assert diffeo_from_spec({"kind": "rotation", "delta": 0.4}).params["delta"] == 0.4
        assert diffeo_from_spec({"kind": "mobius", "a": [0.1, 0.2]}).params["a"] == 0.1 + 0.2j
        flow = diffeo_from_spec({"kind": "fourier_flow", "coeffs": [[2, 0.1]]})
        assert flow.params["coeffs"] == [(2, 0.1)]

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "mobius", "a": [0.1]},
            {"kind": "mobius", "a": [0.1, 0.0, 0.0]},
            {"kind": "mobius", "a": [True, 0.0]},
            {"kind": "mobius", "a": [0.1, 0.0], "extra": 1},
            {"kind": "mobius", "a": [0.1, 0.0], "delta": 0.2},
            {"kind": "rotation"},
            {"kind": "rotation", "delta": "x"},
            {"kind": "rotation", "delta": float("nan")},
            {"kind": "fourier_flow", "coeffs": 3},
            {"kind": "fourier_flow", "coeffs": [[2]]},
            {"kind": "fourier_flow", "coeffs": [[2.5, 0.1]]},
            {"kind": "fourier_flow", "coeffs": [[2, float("inf")]]},
            {"kind": ["mobius"]},
        ],
    )
    def test_from_spec_rejects_malformed(self, spec):
        with pytest.raises(FormatError):
            diffeo_from_spec(spec)

    def test_from_spec_rejects_unknown(self):
        with pytest.raises(FormatError):
            diffeo_from_spec({"kind": "squeeze"})
        with pytest.raises(FormatError):
            diffeo_from_spec({"delta": 0.1})


def dense_composition_operator(phi, N, K):
    """The quadrature as a dense product: ``exp(-i m theta) @ w ** n / K``."""
    theta = 2.0 * np.pi * np.arange(K) / K
    w = phi.boundary(theta)
    modes = np.array(mode_indices(N))
    powers = w[:, None] ** modes[None, :]
    outgoing = np.exp(-1j * np.outer(modes, theta))
    return (outgoing @ powers) / K


QUADRATURE_CASES = [
    rotation_diffeo(0.7),
    mobius_diffeo(0.1 + 0.05j),
    fourier_flow_diffeo([(2, 0.15)]),
    fourier_flow_diffeo([(3, 0.1), (1, 0.2)]),
]
QUADRATURE_IDS = ["rotation", "mobius", "flow2", "flow31"]


def refuse_boundary():
    def boundary(t):
        raise AssertionError("the quadrature grid was built before the guard")

    return CircleDiffeo(kind="refused", params={}, phi=boundary, boundary=boundary)


class TestCompositionOperator:
    @pytest.mark.parametrize("phi", QUADRATURE_CASES, ids=QUADRATURE_IDS)
    @pytest.mark.parametrize("N, K", [(1, 16), (4, 64), (16, 256), (32, 512), (8, 40)])
    @pytest.mark.filterwarnings("ignore::polargrass.errors.AliasingRisk")
    def test_fft_matches_dense_quadrature(self, phi, N, K):
        # (8, 40): K < 2N + 1, so modes alias onto one another in both
        C = composition_operator(phi, N, K)
        ref = dense_composition_operator(phi, N, K)
        assert np.abs(C - ref).max() <= 1e-12

    @pytest.mark.parametrize("phi", QUADRATURE_CASES, ids=QUADRATURE_IDS)
    @pytest.mark.parametrize("N", [1, 8, 32])
    def test_blocks_are_the_rescaled_compression(self, phi, N):
        model = BosonModel(N)
        M = model.split.compress(model.to_real(composition_operator(phi, N)))
        blk = composition_blocks(phi, N)
        assert np.abs(blk.a - M[:N, :N]).max() <= 1e-12
        assert np.abs(blk.b - M[N:, :N]).max() <= 1e-12

    def test_rotation_is_diagonal_phase(self):
        # coefficient m of exp(i n (t + delta)) is exp(i n delta)[m == n]
        C = composition_operator(rotation_diffeo(0.7), 4)
        modes = np.array(mode_indices(4))
        assert hs_norm(C - np.diag(np.exp(0.7j * modes))) <= 1e-12

    def test_aliasing_warning(self):
        with pytest.warns(AliasingRisk):
            composition_operator(rotation_diffeo(0.1), 8, K=32)

    def test_decreasing_map_rejected(self):
        reverse = CircleDiffeo(
            kind="reverse",
            params={},
            phi=lambda t: -np.asarray(t, dtype=float),
            boundary=lambda t: np.exp(-1j * np.asarray(t, dtype=float)),
        )
        with pytest.raises(NotIncreasing):
            composition_operator(reverse, 4)

    def test_cutoff_floor(self):
        with pytest.raises(DimensionMismatch):
            composition_operator(rotation_diffeo(0.1), 0)

    def test_quadrature_floor(self):
        with pytest.raises(DimensionMismatch):
            composition_operator(rotation_diffeo(0.1), 4, K=0)

    @pytest.mark.parametrize(
        "N, K", [(10**6, None), (4, MAX_GRID), (2**9, 2**14 + 1), (3000, 1)]
    )
    def test_grid_cap_is_guarded_before_sampling(self, N, K):
        for build in (composition_operator, composition_blocks, grunsky):
            with pytest.raises(DimensionGuard):
                build(refuse_boundary(), N, K)

    def test_grid_cap_admits_its_edge(self):
        # N * K == MAX_GRID passes the guard and reaches the sampling
        with pytest.raises(AssertionError):
            composition_operator(refuse_boundary(), 2**10, MAX_GRID // 2**10)


class TestOmegaInvariance:
    # C^T Omega C = Omega holds band-limited at N=32, K=512 on the modes
    # |m| <= 16; measured residuals 6.1e-14 (mobius), 7.8e-9 (flow),
    # 4.2e-14 (rotation)
    @pytest.mark.parametrize(
        "phi",
        [
            mobius_diffeo(0.1 + 0.05j),
            fourier_flow_diffeo([(2, 0.15)]),
            rotation_diffeo(0.7),
        ],
        ids=["mobius", "flow", "rotation"],
    )
    def test_band_limited_invariance(self, phi):
        N, K, band = 32, 512, 16
        model = BosonModel(N)
        C = composition_operator(phi, N, K)
        Om = model.omega_mode_matrix()
        D = C.T @ Om @ C - Om
        keep = np.array([abs(m) <= band for m in mode_indices(N)])
        assert hs_norm(D[np.ix_(keep, keep)]) <= 1e-6


class TestGrunsky:
    def test_mobius_maps_vanish(self):
        # Mobius maps preserve the polarization: measured opnorm 2.96e-8
        # and symmetry defect 4.15e-8, pure quadrature noise
        Z = grunsky(mobius_diffeo(0.3), 32, 512)
        assert op_norm(Z.Z) <= 1e-7
        assert hs_norm(Z.Z - Z.Z.T) <= 1e-7

    @pytest.mark.parametrize(
        "coeffs, opnorm",
        [
            ([(2, 0.3)], 0.161361),
            ([(2, 0.15)], 0.076213),
            ([(3, 0.2)], 0.153224),
        ],
    )
    def test_flow_norms_and_symmetry(self, coeffs, opnorm):
        Z = grunsky(fourier_flow_diffeo(coeffs), 32, 512)
        assert op_norm(Z.Z) == pytest.approx(opnorm, abs=1e-5)
        assert op_norm(Z.Z) < 1.0
        assert hs_norm(Z.Z - Z.Z.T) <= 1e-8

    @pytest.mark.parametrize("coeffs, bound", [([(2, 0.3)], 1e-7), ([(2, 0.15)], 1e-12)])
    def test_two_resolution_agreement(self, coeffs, bound):
        # low modes stabilize once the cutoff clears the spectral support;
        # measured 4.8e-9 and 4.5e-14
        Z32 = grunsky(fourier_flow_diffeo(coeffs), 32, 512).Z
        Z64 = grunsky(fourier_flow_diffeo(coeffs), 64, 1024).Z
        assert hs_norm(Z64[:32, :32] - Z32) <= bound

    def test_composition_coherence(self):
        # the operator of phi1 acts contravariantly: transforming the
        # point of phi2 by the blocks of phi1 gives the point of
        # phi2 o phi1 (measured 1.3e-10 worst case)
        flow = fourier_flow_diffeo([(2, 0.1)])
        mob = mobius_diffeo(0.2)
        flow2 = fourier_flow_diffeo([(3, 0.08)])
        for phi1, phi2 in [(flow, mob), (mob, flow), (flow, flow2)]:
            lhs = composition_blocks(phi1, 32, 512).transform(grunsky(phi2, 32, 512).Z)
            rhs = grunsky(compose_diffeos(phi2, phi1), 32, 512).Z
            assert hs_norm(lhs - rhs) <= 1e-8

    def test_identity_residual_band_limited(self):
        # a* a - b* b - I is tiny on low modes (5.7e-14 at M=8) but O(1)
        # at the truncation corner (2.45 full): hard truncation drops the
        # Fourier mass a near-cutoff mode spreads past the cutoff
        blk = composition_blocks(mobius_diffeo(0.3), 32, 512)
        assert blk.identity_residual(8) <= 1e-10
        assert 2.0 <= blk.identity_residual() <= 3.0

    def test_singular_diagonal_block_detected(self):
        # at N=48 the amplitude-0.45 flow concentrates so little mass on
        # kept modes that sigma_min(a) = 2.9e-10, far under the guard
        with pytest.raises(BlockSingular):
            composition_blocks(fourier_flow_diffeo([(2, 0.45)]), 48)

    def test_large_cutoff_rotation_is_fast(self):
        # a rotation preserves the polarization; N = 512 (K = 8192) took
        # 0.9 s on one BLAS thread of a 2-vCPU machine, 7.6 s with the
        # dense quadrature
        start = time.perf_counter()
        p = grunsky(rotation_diffeo(0.7), 512)
        elapsed = time.perf_counter() - start
        assert op_norm(p.Z) < 1e-6
        assert elapsed < 5.0

    def test_point_carries_its_opnorm(self):
        p = grunsky(fourier_flow_diffeo([(2, 0.15)]), 16)
        assert p.opnorm == op_norm(p.Z)

    def test_singular_transform_denominator_detected(self):
        blk = CompositionBlocks(np.diag([1.0, 0.0]).astype(complex), np.zeros((2, 2), complex))
        with pytest.raises(BlockSingular):
            blk.transform(np.zeros((2, 2), dtype=complex))


class TestFermionModel:
    def test_triple_compatible(self):
        t = fermion_triple(3)
        assert verify_triple(t.g, t.J, t.omega).max_residual <= 1e-14
        assert np.array_equal(t.g.matrix, 2.0 * np.eye(8))

    def test_polarization_is_eigenspace(self):
        pol = fermion_polarization(3)
        t = fermion_triple(3)
        cols = pol.wplus.matrix
        assert pol.wplus.rank == 4
        assert hs_norm(t.Jmat @ cols - 1j * cols) <= 1e-14

    def test_negative_cutoff_rejected(self):
        with pytest.raises(DimensionMismatch):
            fermion_triple(-1)


class TestTorusPeriod:
    @pytest.mark.parametrize("tau", [1j, 0.5 + 0.5j, 2j])
    def test_upper_half_members(self, tau):
        rep = torus_period(tau)
        assert abs(rep.point.Z[0, 0] - tau) <= 1e-12
        assert rep.residuals["a_period"] <= 1e-12
        assert rep.residuals["b_period"] <= 1e-12

    def test_lower_half_rejected(self):
        with pytest.raises(NotUpperHalf):
            torus_period(0.5 - 0.5j)
        with pytest.raises(NotUpperHalf):
            torus_period(1.0)  # real axis is not interior

    def test_non_finite_rejected(self):
        with pytest.raises(FormatError):
            torus_period(complex(np.nan, 1.0))
