import numpy as np
import pytest
from hypothesis import given, strategies as st

from polargrass.circle import composition_blocks, mobius_diffeo, rotation_diffeo
from polargrass.errors import (
    DimensionMismatch,
    InvariantViolation,
    NotOrthogonal,
    NotSymplectic,
    NotUpperHalf,
    NumericallySingular,
    ProjectionSingular,
)
from polargrass.linalg import Frame, hs_norm, op_norm, principal_angle_distance
from polargrass.orthograss import OrthoGraphOperator
from polargrass.polarization import complexify, eigensplit
from polargrass.sampling import random_contraction, random_symplectic, random_unitary
from polargrass.siegel import (
    BlockSymplectic,
    SignedMatrix,
    SiegelPoint,
    UpperHalfPoint,
    block_decompose,
    disk_to_halfspace,
    graph_frame,
    graph_operator,
    halfspace_membership,
    mobius_act,
    restricted_character,
    siegel_membership,
    sp_from_siegel_point,
)
from polargrass.triples import standard_triple


def boost(r: float) -> BlockSymplectic:
    """Single-mode hyperbolic element: a = cosh r, b = sinh r."""
    return BlockSymplectic(np.array([[np.cosh(r)]]), np.array([[np.sinh(r)]]))


@pytest.fixture(scope="module")
def split4():
    return eigensplit(complexify(standard_triple(4)))


class TestDiskPoints:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvariantViolation):
            SiegelPoint(np.array([[0.0, 0.5], [-0.5, 0.0]]))

    def test_rejects_boundary(self):
        with pytest.raises(InvariantViolation):
            SiegelPoint(np.eye(2).astype(complex))

    def test_membership_hand_values(self):
        # Z = diag(0.5, 0): symmetric, 1 - Z*Z has eigenvalues 0.75, 1
        rep = siegel_membership(np.diag([0.5, 0.0]).astype(complex))
        assert rep.member
        assert rep.symmetry_residual == 0.0
        assert rep.min_eigenvalue == pytest.approx(0.75)

    def test_membership_rejects_expansion(self):
        rep = siegel_membership(np.diag([1.2, 0.0]).astype(complex))
        assert not rep.member
        assert rep.min_eigenvalue == pytest.approx(1 - 1.44)

    def test_halfspace_membership(self):
        rep = halfspace_membership(np.array([[0.3 + 0.7j]]))
        assert rep.member
        assert rep.min_eigenvalue == pytest.approx(0.7)
        assert not halfspace_membership(np.array([[0.3 - 0.7j]])).member

    def test_upper_half_guard(self):
        with pytest.raises(NotUpperHalf):
            UpperHalfPoint(np.array([[1.0 - 0.5j]]))


class TestCayley:
    def test_origin_goes_to_i(self):
        # i (1 + 0)(1 - 0)^{-1} = i
        h = disk_to_halfspace(SiegelPoint(np.zeros((2, 2))))
        assert hs_norm(h.Z - 1j * np.eye(2)) < 1e-14

    def test_real_axis_hand_value(self):
        # scalar z = 1/2: i(1 + z)/(1 - z) = 3i
        h = disk_to_halfspace(SiegelPoint(np.array([[0.5]])))
        assert h.Z[0, 0] == pytest.approx(3j)

    def test_image_is_upper_half(self, rng):
        for _ in range(10):
            p = SiegelPoint(random_contraction(3, rng))
            h = disk_to_halfspace(p)
            assert halfspace_membership(h.Z).member


class TestBlocks:
    def test_identity_relation_enforced(self):
        with pytest.raises(NotSymplectic):
            BlockSymplectic(np.eye(2), np.eye(2))

    def test_singular_a_rejected_by_guard(self):
        # the identities hold to deviation 1 against a relative budget of
        # 1e-9 * ||a||^2 = 10; only the invertibility guard catches a
        with pytest.raises(NumericallySingular):
            BlockSymplectic(np.diag([1e5, 0.0]), np.diag([np.sqrt(1e10 - 1), 0.0]))

    def test_boost_satisfies_relation(self):
        u = boost(0.7)
        assert u.a[0, 0] ** 2 - u.b[0, 0] ** 2 == pytest.approx(1.0)

    def test_stores_read_only_copies_of_the_callers_blocks(self):
        a = np.array([[np.cosh(0.7)]], dtype=complex)
        b = np.array([[np.sinh(0.7)]], dtype=complex)
        u = BlockSymplectic(a, b)
        assert a.flags.writeable and b.flags.writeable
        assert not u.a.flags.writeable and not u.b.flags.writeable
        assert not np.shares_memory(a, u.a) and not np.shares_memory(b, u.b)

    def test_inverse_composes_to_identity(self, rng):
        u = random_symplectic(4, rng)
        e = u.compose(u.inverse())
        assert hs_norm(e.a - np.eye(4)) < 1e-12
        assert hs_norm(e.b) < 1e-12

    def test_compose_matches_matrix_product(self, rng):
        u1 = random_symplectic(3, rng)
        u2 = random_symplectic(3, rng)
        prod = u1.compose(u2)
        assert hs_norm(prod.matrix() - u1.matrix() @ u2.matrix()) < 1e-12

    def test_from_unitary_has_no_mixing(self, rng):
        u = BlockSymplectic.from_unitary(random_unitary(3, rng))
        assert hs_norm(u.b) == 0.0

    def test_decompose_recovers_blocks(self, split4, rng):
        u = random_symplectic(4, rng)
        # push the block matrix into real coordinates and read it back
        real = split4.basis @ u.matrix() @ split4.dual
        assert np.abs(real.imag).max() < 1e-12
        back = block_decompose(real.real, split4)
        assert hs_norm(back.a - u.a) < 1e-10
        assert hs_norm(back.b - u.b) < 1e-10

    def test_decompose_rejects_nonsymplectic(self, split4):
        with pytest.raises(NotSymplectic):
            block_decompose(np.diag([2.0] * 4 + [0.5] * 4), split4)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sign, error", [(1, NotSymplectic), (-1, NotOrthogonal)])
    def test_decompose_rejects_an_overflowing_map_by_name(self, sign, error):
        # ||u||^2 overflows: an infinite scale fails the gate, not OverflowError
        split = eigensplit(complexify(standard_triple(2)))
        with pytest.raises(error):
            block_decompose(np.diag([1e160, 1.0, 1.0, 1.0]), split, sign)


class TestMobiusAction:
    def test_identity_fixes_points(self, rng):
        p = SiegelPoint(random_contraction(4, rng))
        q = mobius_act(BlockSymplectic.identity(4), p)
        assert hs_norm(q.Z - p.Z) == 0.0

    def test_boost_moves_origin_to_tanh(self):
        # (b + 0)(a + 0)^{-1} = tanh r
        q = mobius_act(boost(0.7), SiegelPoint(np.zeros((1, 1))))
        assert q.Z[0, 0] == pytest.approx(np.tanh(0.7))

    def test_transitivity_from_origin(self, rng):
        Z = random_contraction(5, rng)
        u = sp_from_siegel_point(SiegelPoint(Z))
        q = mobius_act(u, SiegelPoint(np.zeros((5, 5))))
        assert hs_norm(q.Z - Z) < 1e-10

    def test_group_law(self, rng):
        u1 = random_symplectic(4, rng)
        u2 = random_symplectic(4, rng)
        p = SiegelPoint(random_contraction(4, rng))
        once = mobius_act(u1.compose(u2), p)
        twice = mobius_act(u1, mobius_act(u2, p))
        assert hs_norm(once.Z - twice.Z) < 1e-10

    def test_unitary_action_is_congruence(self, rng):
        # b = 0: Z -> conj(q) Z q^{-1}... for the disk this reads
        # (conj(q) Z)(q)^{-1}, symmetric because Z is
        q = random_unitary(3, rng)
        u = BlockSymplectic.from_unitary(q)
        p = SiegelPoint(random_contraction(3, rng))
        expect = np.conj(q) @ p.Z @ np.linalg.inv(q)
        assert hs_norm(mobius_act(u, p).Z - expect) < 1e-12

    def test_size_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            mobius_act(BlockSymplectic.identity(3), SiegelPoint(np.zeros((2, 2))))


class TestGraph:
    def test_origin_graph_is_lplus(self, split4):
        f = graph_frame(SiegelPoint(np.zeros((4, 4))), split4)
        assert principal_angle_distance(f, Frame(split4.lplus)) < 1e-12

    def test_roundtrip_operator_of_frame(self, split4, rng):
        p = SiegelPoint(random_contraction(4, rng))
        back = graph_operator(graph_frame(p, split4), split4)
        assert hs_norm(back.Z - p.Z) < 1e-10

    def test_roundtrip_frame_of_operator(self, split4, rng):
        w = graph_frame(SiegelPoint(random_contraction(4, rng)), split4)
        again = graph_frame(graph_operator(w, split4), split4)
        assert principal_angle_distance(w, again) < 1e-9

    def test_conjugate_half_is_not_a_graph(self, split4):
        with pytest.raises(ProjectionSingular):
            graph_operator(Frame(split4.lminus), split4)

    def test_action_matches_subspace_motion(self, split4, rng):
        # moving the point and moving the subspace agree
        u = random_symplectic(4, rng)
        p = SiegelPoint(random_contraction(4, rng))
        moved_point = mobius_act(u, p)
        real = (split4.basis @ u.matrix() @ split4.dual).real
        moved_frame = Frame.from_columns(real @ graph_frame(p, split4).matrix)
        assert (
            principal_angle_distance(
                graph_frame(moved_point, split4), moved_frame
            )
            < 1e-9
        )


class TestRestrictedCharacter:
    def test_boost_frozen_value(self):
        # hand closed form for scalar blocks: 2 sqrt(2) sinh(r) sqrt(cosh 2r);
        # at r = 0.7 this is 3.146722576292627
        rep = restricted_character(boost(0.7))
        assert rep.hs_b == pytest.approx(np.sinh(0.7))
        assert rep.hs_jdef == pytest.approx(3.146722576292627, abs=1e-12)
        assert rep.hs_jdef_direct == pytest.approx(3.146722576292627, abs=1e-9)

    def test_two_routes_agree(self, rng):
        for n in (2, 5):
            rep = restricted_character(random_symplectic(n, rng))
            assert rep.hs_jdef == pytest.approx(rep.hs_jdef_direct, abs=1e-9)

    def test_vanishes_exactly_for_metric_preserving(self, rng):
        rep = restricted_character(BlockSymplectic.from_unitary(random_unitary(4, rng)))
        assert rep.hs_b == 0.0
        assert rep.hs_jdef == 0.0
        assert rep.hs_jdef_direct < 1e-12


class TestDegenerateAction:
    def test_denominator_regular_inside_disk(self):
        # a + conj(b) Z = cosh(r)(1 + tanh(r) Z) only degenerates on the
        # boundary, so even the point closest to -tanh(r) acts fine
        u = boost(5.0)
        p = SiegelPoint(np.array([[-np.tanh(5.0) + 1e-14]]))
        q = mobius_act(u, p)
        assert abs(q.Z[0, 0]) < 1.0


@given(st.integers(min_value=0, max_value=5_000))
def test_action_stays_in_disk_over_seeds(seed):
    rng = np.random.default_rng(seed)
    u = random_symplectic(2, rng)
    p = SiegelPoint(random_contraction(2, rng))
    q = mobius_act(u, p)
    assert op_norm(q.Z) < 1.0
    assert hs_norm(q.Z - q.Z.T) < 1e-8


@pytest.mark.parametrize(
    "make",
    [
        lambda: eigensplit(complexify(standard_triple(2))),
        lambda: SignedMatrix(np.eye(2)),
        lambda: SiegelPoint(np.zeros((2, 2))),
        lambda: UpperHalfPoint(1j * np.eye(2)),
        lambda: OrthoGraphOperator(np.array([[0.0, 0.5], [-0.5, 0.0]])),
        lambda: composition_blocks(mobius_diffeo(0.1), 4),
        lambda: standard_triple(2).g,
        lambda: standard_triple(2).J,
        lambda: standard_triple(2).report,
        lambda: rotation_diffeo(0.1),
    ],
    ids=["EigenSplit", "SignedMatrix", "SiegelPoint", "UpperHalfPoint",
         "OrthoGraphOperator", "CompositionBlocks", "BilinearForm", "ComplexStructure",
         "TripleReport", "CircleDiffeo"],
)
def test_array_holding_types_hash_by_identity(make):
    # frozen types over ndarray fields: hash() and == by identity, never a
    # TypeError or an ambiguous array truth value
    obj, twin = make(), make()
    assert hash(obj) == hash(obj)
    assert len({obj, obj, twin}) == 2
    assert (obj == obj) is True
    assert (obj == twin) is False
