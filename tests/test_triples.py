import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from polargrass.linalg import hs_norm
from polargrass.sampling import random_invertible
from polargrass.triples import (
    BilinearForm,
    CompatibleTriple,
    ComplexStructure,
    complete_from_g_J,
    complete_from_g_omega,
    complete_from_J_omega,
    group_membership,
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
        assert t.omega.pair(x1, y1) == 1.0
        assert t.omega.pair(y1, x1) == -1.0
        # J rotates x_k to y_k
        assert np.array_equal(t.Jmat @ x1, y1)
        assert np.array_equal(t.Jmat @ y1, -x1)
        assert np.array_equal(t.G, np.eye(4))

    def test_rejects_n_zero(self):
        with pytest.raises(DimensionMismatch):
            standard_triple(0)


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


class TestGroupMembership:
    def test_rotation_is_in_every_group(self):
        # plane rotations commute with J, preserve lengths and areas
        t = standard_triple(1)
        rep = group_membership(rotation2(0.4), t)
        assert rep.orthogonal and rep.symplectic and rep.unitary

    def test_shear_is_symplectic_only(self):
        t = standard_triple(1)
        rep = group_membership(np.array([[1.0, 1.0], [0.0, 1.0]]), t)
        assert rep.symplectic
        assert not rep.orthogonal
        assert not rep.unitary

    def test_scaling_is_neither(self):
        t = standard_triple(1)
        rep = group_membership(np.diag([2.0, 2.0]), t)
        assert not rep.symplectic
        assert not rep.orthogonal

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_map_is_in_no_group(self):
        # its squared norm overflows: as a product it is an infinite scale,
        # which the rule rejects, not Python's OverflowError
        rep = group_membership(np.diag([1e160, 1.0, 1.0, 1.0]), standard_triple(2))
        assert not (rep.invertible or rep.orthogonal or rep.symplectic or rep.unitary)


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
