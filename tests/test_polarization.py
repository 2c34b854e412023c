import numpy as np
import pytest

from polargrass.errors import (
    InvariantViolation,
    NotComplementary,
    NotPositive,
    PolargrassError,
    RankMismatch,
)
from polargrass.fock import build_fock
from polargrass.linalg import Frame, Tolerances, hs_norm, smallest_singular_value
from polargrass.polarization import (
    ComplexifiedSpace,
    EigenSplit,
    OrthogonalPolarization,
    PositiveSymplecticPolarization,
    complexify,
    eigensplit,
    hs_projection_norm,
    standard_split,
    triple_from_polarization,
)
from polargrass.sampling import _expm, random_invertible, random_orthogonal
from polargrass.triples import BilinearForm, CompatibleTriple, pullback_triple, standard_triple


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
        assert v @ space.G @ np.conj(w) == pytest.approx(v @ t.G @ w)
        assert v @ space.Omega @ w == pytest.approx(v @ t.Omega @ w)

    def test_metric_structure_symplectic_identity(self, standard4, rng):
        # g(v, w) = omega(v, J alpha(w)) extended to complex vectors
        t, space, _ = standard4
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = v @ space.G @ np.conj(w)
        rhs = v @ space.Omega @ (t.Jmat @ np.conj(w))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("defect, rejected", [(1e-8, True), (1e-10, False)])
    def test_pairing_identities_gate_a_loosely_verified_triple(self, defect, rejected):
        # the triple's own gate (eq_tol = 1e-2) lets the defect through;
        # complexify's check of G = Omega J and Omega = J^T G does not
        t = standard_triple(2)
        Om = np.array(t.Omega)
        Om[0, 1] += defect
        Om[1, 0] -= defect
        loose = CompatibleTriple(t.g, t.J, BilinearForm("antisymmetric", Om), Tolerances(eq_tol=1e-2))
        if rejected:
            with pytest.raises(InvariantViolation):
                complexify(loose)
        else:
            assert complexify(loose).triple is loose

    def test_g_orthonormalize(self, standard4, rng):
        _, space, _ = standard4
        cols = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        F = space.g_orthonormalize(cols)
        assert hs_norm(space.gram(F) - np.eye(2)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_g_orthonormalize_matches_triangular_solve(self, rng, n):
        # the Cholesky route written with scipy's triangular solve, which
        # the library no longer imports
        solve_triangular = pytest.importorskip("scipy.linalg").solve_triangular
        space = complexify(pullback_triple(random_invertible(2 * n, rng), standard_triple(n)))
        cols = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
        gram = space.gram(cols)
        low = np.linalg.cholesky(0.5 * (gram + gram.conj().T))
        ref = solve_triangular(low, cols.T.conj(), lower=True).conj().T
        assert np.abs(space.g_orthonormalize(cols) - ref).max() <= 1e-13


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
        # paired coordinates of v and back
        assert hs_norm(split.basis @ (split.dual @ v) - v) < 1e-13

    def test_pullback_split(self, rng):
        t = pullback_triple(random_invertible(8, rng), standard_triple(4))
        split = eigensplit(complexify(t))
        assert hs_norm(t.Jmat @ split.lplus - 1j * split.lplus) < 1e-9
        gram = complexify(t).gram(split.lplus)
        assert hs_norm(gram - np.eye(4)) < 1e-9


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
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("cls", [OrthogonalPolarization, PositiveSymplecticPolarization])
    def test_roundtrip(self, cls, n):
        # the setting's form comes back unchanged, the other two members
        # within 1e-9
        rng = np.random.default_rng(100 + n)
        t = pullback_triple(random_invertible(2 * n, rng), standard_triple(n))
        space = complexify(t)
        pol = cls(space, Frame.from_columns(eigensplit(space).lplus))
        back = triple_from_polarization(pol)
        fixed, other = ("g", "omega") if cls.sign < 0 else ("omega", "g")
        assert getattr(back, fixed) is getattr(t, fixed)
        assert hs_norm(back.Jmat - t.Jmat) < 1e-9
        assert hs_norm(getattr(back, other).matrix - getattr(t, other).matrix) < 1e-9


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
    split = EigenSplit(space, lplus)
    assert lplus.flags.writeable
    assert not split.lplus.flags.writeable
    assert not np.shares_memory(lplus, split.lplus)


def test_eigensplit_diagonalizes_the_metric_once(monkeypatch):
    # both roots of G come from one validated eigh
    from polargrass import linalg

    calls = []
    real_powers = linalg._spd_powers

    def counted(a, powers, tol):
        calls.append(powers)
        return real_powers(a, powers, tol)

    monkeypatch.setattr(linalg, "_spd_powers", counted)
    rng = np.random.default_rng(3)
    space = complexify(pullback_triple(random_invertible(4, rng), standard_triple(2)))
    split = eigensplit(space)
    assert calls == [(0.5, -0.5)]
    assert hs_norm(space.gram(split.lplus) - np.eye(2)) <= 1e-9


def test_build_fock_orthonormalizes_the_frame_once(monkeypatch):
    # the spanning gate and build_fock share the polarization's gframe
    calls = []
    real = ComplexifiedSpace.g_orthonormalize

    def counted(self, cols):
        calls.append(cols)
        return real(self, cols)

    monkeypatch.setattr(ComplexifiedSpace, "g_orthonormalize", counted)
    rng = np.random.default_rng(5)
    t = pullback_triple(random_invertible(6, rng), standard_triple(3))
    space = complexify(t)
    pol = OrthogonalPolarization(space, Frame.from_columns(eigensplit(space).lplus))
    rep = build_fock(pol)
    assert len(calls) == 1
    assert np.array_equal(rep.frame, pol.gframe)


def test_standard_split_is_shared_per_rank():
    split = standard_split(3)
    assert standard_split(3) is split
    fresh = eigensplit(complexify(standard_triple(3)))
    assert np.array_equal(split.lplus, fresh.lplus)
    assert np.array_equal(split.dual, fresh.dual)


def test_standard_split_is_read_only():
    split = standard_split(2)
    t = split.space.triple
    arrays = [split.lplus, split.space.triple.Jmat, split.basis, split.dual, split.space.G,
              split.space.Omega, t.G, t.Jmat, t.Omega]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 7.0


def test_basis_and_dual_are_formed_once(standard4):
    _, space, split = standard4
    assert split.basis is split.basis
    assert split.dual is split.dual
    assert np.array_equal(split.basis, np.hstack([split.lplus, split.lminus]))
    assert np.array_equal(split.dual, split.basis.conj().T @ space.G)
    assert np.allclose(split.dual @ split.basis, np.eye(4), atol=1e-12)


def test_array_holding_types_hash_by_identity():
    # frozen types over ndarray fields: hash() and == by identity, never a
    # TypeError or an ambiguous array truth value
    t = standard_triple(2)
    space = complexify(t)
    split = eigensplit(space)
    objects = [
        t,
        space,
        OrthogonalPolarization(space, Frame(split.lplus)),
        PositiveSymplecticPolarization(space, Frame(split.lplus)),
    ]
    for obj in objects:
        assert hash(obj) == hash(obj)
        assert len({obj, obj}) == 1
    assert (complexify(t) == complexify(t)) is False
    assert (space == space) is True


@pytest.mark.parametrize("n", range(1, 9))
def test_construction_keeps_the_complement_pair_invertible(n):
    # triple_from_polarization solves with B = [W, conj(W)] without a gate
    # of its own; the construction gates keep sigma_min(B) above the floor
    # 1e-10 max(1, max|B_ij|) = 1e-10 that it used to take (W has
    # orthonormal columns).  Maps preserving the pulled-back g (orthogonal)
    # or omega (symplectic) carry the triple's +i eigenspace to others.
    rng = np.random.default_rng(900 + n)
    omega0 = standard_triple(n).Omega
    built = {OrthogonalPolarization: 0, PositiveSymplecticPolarization: 0}
    for scale in (0.4, 2.0):
        for _ in range(4):
            u = _expm(scale * rng.standard_normal((2 * n, 2 * n)))
            try:
                space = complexify(pullback_triple(u, standard_triple(n)))
                lplus = eigensplit(space).lplus
            except PolargrassError:
                continue
            H = rng.standard_normal((2 * n, 2 * n))
            symplectic = _expm(np.linalg.solve(omega0, scale * (H + H.T) / 2))
            for cls, R in (
                (OrthogonalPolarization, u @ random_orthogonal(2 * n, rng) @ np.linalg.inv(u)),
                (PositiveSymplecticPolarization, u @ symplectic @ np.linalg.inv(u)),
            ):
                try:
                    pol = cls(space, Frame.from_columns(R @ lplus))
                except PolargrassError:
                    continue
                built[cls] += 1
                W = pol.wplus.matrix
                sigma = smallest_singular_value(np.hstack([W, np.conj(W)]))
                assert sigma >= 1e-10
                if cls is OrthogonalPolarization:
                    # the bound the spanning residual gives
                    span = pol.check()["spanning"]
                    assert sigma >= (1 - span) / (2 * np.sqrt(np.linalg.cond(space.G)))
    assert min(built.values()) >= 4
