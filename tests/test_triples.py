import numpy as np
import pytest
from hypothesis import given, strategies as st

from polargrass.circle import boson_triple, fermion_triple
from polargrass.errors import (
    DimensionMismatch,
    FormatError,
    InvariantViolation,
    NotAComplexStructure,
    NotPositive,
    NotSkewAdjoint,
    NotSkewSymmetric,
    SingularTransform,
)
from polargrass.linalg import Tolerances, hs_norm
from polargrass.sampling import random_invertible
from polargrass.triples import (
    BilinearForm,
    CompatibleTriple,
    ComplexStructure,
    complete_from_g_J,
    complete_from_g_omega,
    complete_from_J_omega,
    planar_triple,
    pullback_triple,
    standard_triple,
    verify_triple,
)


def rotation2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestStandardTriple:
    def test_identities_exactly_zero(self):
        t = standard_triple(3)
        report = verify_triple(t.g, t.J, t.omega)
        assert report.compatible
        assert report.max_residual == 0.0

    def test_hand_pairings(self):
        t = standard_triple(2)
        x1, y1 = np.eye(4)[0], np.eye(4)[1]
        # area form on each plane: omega(x_k, y_k) = 1 = -omega(y_k, x_k)
        assert x1 @ t.Omega @ y1 == 1.0
        assert y1 @ t.Omega @ x1 == -1.0
        # J rotates x_k to y_k
        assert np.array_equal(t.Jmat @ x1, y1)
        assert np.array_equal(t.Jmat @ y1, -x1)
        assert np.array_equal(t.G, np.eye(4))

    def test_rejects_n_zero(self):
        with pytest.raises(DimensionMismatch):
            standard_triple(0)


class TestPlanarTriple:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_planes_carry_the_weighted_blocks(self, n):
        weights = 0.5 * np.arange(1, n + 1)
        t = planar_triple(weights)
        blocks = {
            "G": [w * np.eye(2) for w in weights],
            "Jmat": [np.array([[0.0, -1.0], [1.0, 0.0]])] * n,
            "Omega": [w * np.array([[0.0, 1.0], [-1.0, 0.0]]) for w in weights],
        }
        for name, planes in blocks.items():
            expected = np.zeros((2 * n, 2 * n))
            for k, block in enumerate(planes):
                expected[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
            M = getattr(t, name)
            assert np.array_equal(M, expected)
            # triple_to_json writes -0.0 as -0, which would change its bytes
            assert not np.any(np.signbit(M[M == 0.0]))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_models_are_planar(self, n):
        for t, weights in (
            (standard_triple(n), np.ones(n)),
            (boson_triple(n), 0.5 * np.arange(1, n + 1)),
            (fermion_triple(n - 1), np.full(n, 2.0)),
        ):
            ref = planar_triple(weights)
            for name in ("G", "Jmat", "Omega"):
                M = getattr(t, name)
                assert np.array_equal(M, getattr(ref, name))
                assert np.array_equal(np.signbit(M), np.signbit(getattr(ref, name)))


class TestForms:
    def test_symmetry_class_enforced(self):
        with pytest.raises(InvariantViolation):
            BilinearForm("symmetric", np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(InvariantViolation):
            BilinearForm("antisymmetric", np.eye(2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError):
            BilinearForm("hermitian", np.eye(2))

    def test_degenerate_rejected(self):
        with pytest.raises(InvariantViolation):
            BilinearForm("symmetric", np.diag([1.0, 0.0]))

    def test_min_singular_value_recorded(self):
        f = BilinearForm("symmetric", np.diag([2.0, 0.5]))
        assert f.min_singular_value == pytest.approx(0.5)

    def test_structure_squares_to_minus_identity(self):
        with pytest.raises(NotAComplexStructure):
            ComplexStructure(np.eye(2))
        J = ComplexStructure(rotation2(np.pi / 2))
        assert hs_norm(J.matrix @ J.matrix + np.eye(2)) < 1e-15

    def test_structure_needs_even_dimension(self):
        with pytest.raises(DimensionMismatch):
            ComplexStructure(np.array([[0.0]]))


class TestVerify:
    def test_detects_perturbation(self):
        t = standard_triple(1)
        omega = BilinearForm(
            "antisymmetric", np.array([[0.0, 1.0 + 1e-6], [-1.0 - 1e-6, 0.0]])
        )
        report = verify_triple(t.g, t.J, omega)
        assert not report.compatible
        # the omega identity picks up exactly the perturbation size (two entries)
        assert report.residuals["omega_from_g_J"] == pytest.approx(
            np.sqrt(2) * 1e-6, rel=1e-6
        )

    def test_dimension_mismatch(self):
        t2, t4 = standard_triple(1), standard_triple(2)
        with pytest.raises(DimensionMismatch):
            verify_triple(t2.g, t4.J, t4.omega)

    def test_kind_discipline(self):
        t = standard_triple(1)
        with pytest.raises(FormatError):
            verify_triple(t.omega, t.J, t.omega)


class TestCompletions:
    def test_each_completion_recovers_member(self, rng):
        t = pullback_triple(random_invertible(4, rng), standard_triple(2))
        from_gJ = complete_from_g_J(t.g, t.J)
        from_gOm = complete_from_g_omega(t.g, t.omega)
        from_JOm = complete_from_J_omega(t.J, t.omega)
        assert hs_norm(from_gJ.Omega - t.Omega) < 1e-12
        assert hs_norm(from_gOm.Jmat - t.Jmat) < 1e-12
        assert hs_norm(from_JOm.G - t.G) < 1e-12

    def test_complete_g_J_rejects_non_skew_pair(self):
        # J conjugated by diag(2, 1) is a complex structure but not
        # g-skew for g = I: GJ + J^T G = [[0, -3/2], [-3/2, 0]]
        J = ComplexStructure(np.array([[0.0, -2.0], [0.5, 0.0]]))
        g = BilinearForm("symmetric", np.eye(2))
        with pytest.raises(NotSkewAdjoint):
            complete_from_g_J(g, J)

    def test_complete_g_omega_rejects_incompatible(self):
        # g = diag(1, 4) with the standard area form gives
        # J = -g^{-1} omega = [[0, -1], [1/4, 0]], J^2 = -1/4 I != -I
        g = BilinearForm("symmetric", np.diag([1.0, 4.0]))
        omega = standard_triple(1).omega
        with pytest.raises(NotAComplexStructure):
            complete_from_g_omega(g, omega)

    def test_complete_g_omega_gates_j_squared_once_under_eq_tol(self):
        # omega scaled by 1 + 1e-9: ||J^2 + I|| = 4.0e-9 against ||J||^2 = 4
        t = standard_triple(2)
        omega = BilinearForm("antisymmetric", (1.0 + 1e-9) * t.Omega)
        with pytest.raises(NotAComplexStructure):
            complete_from_g_omega(t.g, omega)
        done = complete_from_g_omega(t.g, omega, Tolerances(eq_tol=1e-8))
        assert done.J.atol == 1e-8
        assert done.J.square_residual == pytest.approx(4e-9, rel=1e-6)

    def test_complex_structure_keeps_its_residual_under_its_budget(self):
        J = (1.0 + 1e-9) * rotation2(np.pi / 2)
        with pytest.raises(NotAComplexStructure):
            ComplexStructure(J)
        assert ComplexStructure(J, atol=1e-8).square_residual == pytest.approx(
            hs_norm(J @ J + np.eye(2)))
        assert ComplexStructure(rotation2(np.pi / 2)).square_residual <= 1e-15

    def test_negated_structure_fails_positivity(self):
        # G = omega (-J) = -I: a negative definite "metric"
        t = standard_triple(2)
        J = ComplexStructure(-t.Jmat)
        with pytest.raises(NotPositive):
            complete_from_J_omega(J, t.omega)

    def test_complete_J_omega_requires_symmetric_product(self):
        # conjugating the standard J by the cross-plane shear x1 -> x1 + x2
        # keeps J^2 = -I but makes omega J asymmetric:
        # omega J = [[1,0,-1,0],[0,1,0,1],[0,0,1,0],[0,0,0,1]]
        t = standard_triple(2)
        P = np.eye(4)
        P[0, 2] = 1.0
        J = ComplexStructure(P @ t.Jmat @ np.linalg.inv(P))
        with pytest.raises(NotSkewSymmetric):
            complete_from_J_omega(J, t.omega)


class TestPullback:
    def test_preserves_compatibility(self, rng):
        t = pullback_triple(random_invertible(8, rng), standard_triple(4))
        assert verify_triple(t.g, t.J, t.omega).max_residual < 1e-11

    def test_identity_is_noop(self):
        t = standard_triple(2)
        s = pullback_triple(np.eye(4), t)
        assert np.array_equal(s.G, t.G)
        assert np.array_equal(s.Jmat, t.Jmat)

    def test_singular_map_rejected(self):
        with pytest.raises(SingularTransform):
            pullback_triple(np.diag([1.0, 0.0, 1.0, 1.0]), standard_triple(2))


class TestRelativeGates:
    def test_pullback_residuals_sit_far_below_their_bounds(self, rng):
        # the absolute 1e-10 gate rejected every such triple at n = 32
        t = pullback_triple(random_invertible(64, rng), standard_triple(32))
        nG, nJ, nOm = hs_norm(t.G), hs_norm(t.Jmat), hs_norm(t.Omega)
        scales = (nOm * nJ, nJ * nG, nOm / t.g.min_singular_value)
        for residual, scale in zip(t.report.residuals.values(), scales):
            assert residual <= 1e-2 * 1e-10 * max(1.0, scale)

    @pytest.mark.parametrize("n", [2, 32])
    def test_a_relative_omega_defect_of_1e_8_fails(self, rng, n):
        t = standard_triple(n)
        A = rng.standard_normal((2 * n, 2 * n))
        defect = (A - A.T) * (1e-8 * hs_norm(t.Omega) / hs_norm(A - A.T))
        omega = BilinearForm("antisymmetric", t.Omega + defect)
        assert not verify_triple(t.g, t.J, omega).compatible
        with pytest.raises(InvariantViolation):
            CompatibleTriple(t.g, t.J, omega)


@given(st.integers(min_value=0, max_value=10_000))
def test_completion_roundtrip_over_seeds(seed):
    rng = np.random.default_rng(seed)
    t = pullback_triple(random_invertible(4, rng), standard_triple(2))
    assert hs_norm(complete_from_g_J(t.g, t.J).Omega - t.Omega) < 1e-9
    assert hs_norm(complete_from_J_omega(t.J, t.omega).G - t.G) < 1e-9
