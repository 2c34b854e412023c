import numpy as np
import pytest

from polargrass.errors import (
    EigenspaceDimension,
    InvariantViolation,
    NotComplementary,
    NotPositive,
    NotRealizable,
    RankMismatch,
)
from polargrass.linalg import Frame, hs_norm
from polargrass.polarization import (
    EigenSplit,
    OrthogonalPolarization,
    PositiveSymplecticPolarization,
    complexify,
    eigensplit,
    hermitian_model,
    hs_projection_norm,
    triple_from_orthogonal,
    triple_from_positive_symplectic,
)
from polargrass.sampling import random_invertible, random_orthogonal
from polargrass.triples import pullback_triple, standard_triple


@pytest.fixture
def standard4():
    t = standard_triple(2)
    space = complexify(t)
    return t, space, eigensplit(space)


def cross_plane_rotation(angle: float) -> np.ndarray:
    """Rotation in the (x1, x2)-plane of R^4; does not commute with J."""
    R = np.eye(4)
    R[0, 0] = R[2, 2] = np.cos(angle)
    R[0, 2] = -np.sin(angle)
    R[2, 0] = np.sin(angle)
    return R


class TestComplexify:
    def test_pairing_conventions(self, standard4, rng):
        # g sesquilinear (linear first slot), omega bilinear; on real
        # vectors both restrict to the original forms
        t, space, _ = standard4
        v = rng.standard_normal(4)
        w = rng.standard_normal(4)
        assert space.g(v, w) == pytest.approx(v @ t.G @ w)
        assert space.omega(v, w) == pytest.approx(v @ t.Omega @ w)

    def test_metric_structure_symplectic_identity(self, standard4, rng):
        # g(v, w) = omega(v, J alpha(w)) extended to complex vectors
        t, space, _ = standard4
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = space.g(v, w)
        rhs = space.omega(v, t.Jmat @ np.conj(w))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_g_orthonormalize(self, standard4, rng):
        _, space, _ = standard4
        cols = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        F = space.g_orthonormalize(cols)
        assert hs_norm(space.gram(F) - np.eye(2)) < 1e-12


class TestEigensplit:
    def test_dual_is_exact_inverse(self, standard4):
        _, _, split = standard4
        assert hs_norm(split.dual @ split.basis - np.eye(4)) < 1e-14

    def test_compress_diagonalizes_structure(self, standard4):
        t, _, split = standard4
        D = split.compress(t.Jmat.astype(complex))
        expect = np.diag([1j, 1j, -1j, -1j])
        assert hs_norm(D - expect) < 1e-14

    def test_eigenvector_property(self, standard4):
        t, _, split = standard4
        assert hs_norm(t.Jmat @ split.lplus - 1j * split.lplus) < 1e-14

    def test_conjugate_pairing(self, standard4):
        _, _, split = standard4
        assert np.array_equal(split.lminus, np.conj(split.lplus))

    def test_coords_roundtrip(self, standard4, rng):
        _, _, split = standard4
        v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        cp, cm = split.coords(v)
        assert hs_norm(split.from_coords(cp, cm) - v) < 1e-13

    def test_pullback_split(self, rng):
        t = pullback_triple(random_invertible(8, rng), standard_triple(4))
        split = eigensplit(complexify(t))
        assert hs_norm(t.Jmat @ split.lplus - 1j * split.lplus) < 1e-9
        gram = complexify(t).gram(split.lplus)
        assert hs_norm(gram - np.eye(4)) < 1e-9

    def test_odd_eigenspace_rejected(self, standard4):
        # a structure on a different space than the triple's own J must
        # still split half-and-half; passing J with wrong multiplicities
        # is caught by the dimension check
        t, space, _ = standard4
        with pytest.raises(EigenspaceDimension):
            eigensplit(space, J=np.diag([1.0, -1.0, 1.0, -1.0]) @ t.Jmat)


class TestHermitianModel:
    def test_carries_metric_to_dot_product(self, standard4, rng):
        # <hm(v), hm(w)> = g(v, w) - i omega(v, w) on real vectors
        t, space, split = standard4
        v = rng.standard_normal(4)
        w = rng.standard_normal(4)
        hv = hermitian_model(t, v, split)
        hw = hermitian_model(t, w, split)
        inner = hv @ np.conj(hw)
        assert inner == pytest.approx(v @ t.G @ w - 1j * (v @ t.Omega @ w), abs=1e-12)

    def test_intertwines_structure(self, standard4, rng):
        t, _, split = standard4
        v = rng.standard_normal(4)
        assert np.allclose(
            hermitian_model(t, t.Jmat @ v, split),
            1j * hermitian_model(t, v, split),
        )


class TestOrthogonalPolarization:
    def test_eigensplit_frame_is_polarization(self, standard4):
        _, space, split = standard4
        pol = OrthogonalPolarization(space, Frame(split.lplus))
        res = pol.check()
        assert res["isotropy"] < 1e-12
        assert res["spanning"] < 1e-12

    def test_real_column_breaks_isotropy(self, standard4):
        # a real vector pairs with itself under the bilinear extension
        _, space, _ = standard4
        cols = np.eye(4)[:, :2].astype(complex)
        with pytest.raises(InvariantViolation):
            OrthogonalPolarization(space, Frame(cols))

    def test_rank_mismatch(self, standard4):
        _, space, split = standard4
        with pytest.raises(RankMismatch):
            OrthogonalPolarization(space, Frame(split.lplus[:, :1]))


class TestPositiveSymplectic:
    def test_positivity_matrix_is_identity_on_eigensplit(self, standard4):
        _, space, split = standard4
        pol = PositiveSymplecticPolarization(space, Frame(split.lplus))
        assert hs_norm(pol.positivity_matrix() - np.eye(2)) < 1e-12

    def test_conjugate_half_is_negative(self, standard4):
        # swapping W and alpha(W) flips the sign of -i omega(v, alpha v)
        _, space, split = standard4
        with pytest.raises(NotPositive):
            PositiveSymplecticPolarization(space, Frame(np.conj(split.lplus)))


class TestTripleReconstruction:
    def test_orthogonal_roundtrip(self, rng):
        t = pullback_triple(random_invertible(6, rng), standard_triple(3))
        space = complexify(t)
        split = eigensplit(space)
        pol = OrthogonalPolarization(space, Frame.from_columns(split.lplus))
        back = triple_from_orthogonal(pol)
        assert hs_norm(back.Jmat - t.Jmat) < 1e-9
        assert hs_norm(back.Omega - t.Omega) < 1e-9

    def test_positive_symplectic_roundtrip(self, rng):
        t = pullback_triple(random_invertible(6, rng), standard_triple(3))
        space = complexify(t)
        split = eigensplit(space)
        pol = PositiveSymplecticPolarization(space, Frame.from_columns(split.lplus))
        back = triple_from_positive_symplectic(pol)
        assert hs_norm(back.Jmat - t.Jmat) < 1e-9
        assert hs_norm(back.G - t.G) < 1e-9

    def test_degenerate_half_not_realizable(self, standard4):
        # columns fixed by conjugation: W and alpha(W) coincide
        _, space, _ = standard4
        cols = np.eye(4)[:, :2].astype(complex)
        pol = OrthogonalPolarization(space, Frame(cols), validate=False)
        with pytest.raises((NotRealizable, InvariantViolation)):
            triple_from_orthogonal(pol)


class TestHsProjection:
    def test_zero_for_equal_subspaces(self, standard4):
        _, space, split = standard4
        w = Frame(split.lplus)
        assert hs_projection_norm(w, w, space) < 1e-14

    def test_cross_plane_rotation_frozen_value(self, standard4):
        # rotating the (x1, x2)-plane by t mixes the halves; the size is
        # linear in t with slope 1/sqrt(2) (value below measured once and
        # pinned: 0.211337433680 at t = 0.3)
        _, space, split = standard4
        w1 = Frame(split.lplus)
        w2 = Frame(cross_plane_rotation(0.3) @ split.lplus)
        got = hs_projection_norm(w2, w1, space)
        assert got == pytest.approx(0.211337433680, abs=1e-9)
        small = hs_projection_norm(
            Frame(cross_plane_rotation(1e-3) @ split.lplus), w1, space
        )
        assert small == pytest.approx(1e-3 / np.sqrt(2), rel=1e-3)

    def test_swapped_halves_fail_complement(self, standard4):
        # W2 + alpha(W2) cannot span when W2 mixes a pair of conjugates
        _, space, split = standard4
        cols = np.hstack([split.lplus[:, :1], np.conj(split.lplus[:, :1])])
        with pytest.raises((NotComplementary, RankMismatch)):
            hs_projection_norm(Frame(split.lplus), Frame.from_columns(cols), space)

    def test_symmetric_in_its_arguments_for_orthogonal_moves(self, rng):
        # the two off-diagonal blocks of an orthogonal compression have
        # the same Hilbert-Schmidt size, so the norm is symmetric
        t = standard_triple(3)
        space = complexify(t)
        split = eigensplit(space)
        u = random_orthogonal(6, rng)
        w1 = Frame(split.lplus)
        w2 = Frame.from_columns(u @ split.lplus)
        a = hs_projection_norm(w2, w1, space)
        b = hs_projection_norm(w1, w2, space)
        assert a == pytest.approx(b, abs=1e-12)


def test_eigensplit_stores_a_read_only_copy_of_the_callers_frame():
    space = complexify(standard_triple(2))
    lplus = np.array(eigensplit(space).lplus)
    split = EigenSplit(space, space.triple.Jmat, lplus)
    assert lplus.flags.writeable
    assert not split.lplus.flags.writeable
    assert not np.shares_memory(lplus, split.lplus)


def test_eigensplit_diagonalizes_the_metric_once(monkeypatch):
    # both roots of G come from one validated eigh
    from polargrass import linalg

    calls = []
    real_eigh = linalg._hermitian_eigh

    def counted(a, tol):
        calls.append(a)
        return real_eigh(a, tol)

    monkeypatch.setattr(linalg, "_hermitian_eigh", counted)
    rng = np.random.default_rng(3)
    space = complexify(pullback_triple(random_invertible(4, rng), standard_triple(2)))
    split = eigensplit(space)
    assert len(calls) == 1
    assert hs_norm(space.gram(split.lplus) - np.eye(2)) <= 1e-9
