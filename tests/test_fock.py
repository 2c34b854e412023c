"""Clifford representations on finite Fock spaces: anticommutation,
adjoints, vacuum cyclicity, equivalence certificates."""

import dataclasses
import time

import numpy as np
import pytest
from scipy import sparse

from polargrass.circle import fermion_polarization
from polargrass.cli import CAR_TOL, Options, run_verb
from polargrass.errors import DimensionGuard, DimensionMismatch, InvariantViolation
from polargrass.fock import (
    MAX_MODES,
    FockSpace,
    adjoint_residual,
    build_fock,
    car_check,
    creation_matrix,
    equivalence_certificate,
    generator_residuals,
    vacuum_cyclicity_rank,
)
from polargrass.linalg import Frame
from polargrass.polarization import OrthogonalPolarization, complexify, eigensplit
from polargrass.sampling import random_orthogonal
from polargrass.serialize import frame_to_json, triple_to_json
from polargrass.triples import standard_triple


@pytest.fixture(scope="module")
def rep3():
    # three modes, dim 8: small enough for exhaustive generator checks
    return build_fock(fermion_polarization(2))


def generators(rep):
    """Ambient vectors represented by the creators and annihilators."""
    cols = [rep.frame[:, k] for k in range(rep.n)]
    return cols + [np.conj(c) for c in cols]


class TestFockSpace:
    def test_subset_naming(self):
        sp = FockSpace(3)
        assert sp.dim == 8
        assert sp.subset(0) == ()
        assert sp.subset(5) == (0, 2)
        assert sp.index_of((0, 2)) == 5
        assert sp.index_of(()) == 0

    def test_bad_indices(self):
        sp = FockSpace(3)
        with pytest.raises(DimensionMismatch):
            sp.subset(8)
        with pytest.raises(DimensionMismatch):
            sp.index_of((0, 0))
        with pytest.raises(DimensionMismatch):
            sp.index_of((3,))

    def test_vacuum(self):
        vac = FockSpace(2).vacuum
        assert vac[0] == 1.0 and np.count_nonzero(vac) == 1

    def test_mode_cap(self):
        FockSpace(MAX_MODES)  # boundary is allowed
        with pytest.raises(DimensionGuard):
            FockSpace(MAX_MODES + 1)


class TestCreationMatrix:
    def test_single_mode(self):
        # one mode: creation takes |vac> to |{0}> and kills |{0}>
        c = creation_matrix(1, 0).toarray()
        assert np.array_equal(c, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_sign_convention(self):
        # creating mode 1 over the occupied mode 0 anticommutes past one
        # letter: entry [3, 1] = -1
        c = creation_matrix(2, 1).toarray()
        assert c[3, 1] == -1.0
        assert c[2, 0] == 1.0

    def test_squares_to_zero(self):
        for k in range(3):
            c = creation_matrix(3, k)
            assert (c @ c).nnz == 0

    def test_raises_degree_by_one(self):
        sp = FockSpace(3)
        c = creation_matrix(3, 1).tocoo()
        for r, col in zip(c.row, c.col):
            assert len(sp.subset(int(r))) == len(sp.subset(int(col))) + 1

    def test_mode_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            creation_matrix(2, 2)


class TestRepresentation:
    def test_coordinates_round_trip(self, rep3, rng):
        p = rng.normal(size=3) + 1j * rng.normal(size=3)
        q = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rep3.frame @ p + np.conj(rep3.frame) @ q
        p2, q2 = rep3.coordinates(v)
        assert np.allclose(p2, p) and np.allclose(q2, q)

    def test_frame_vector_is_creator(self, rep3):
        pi = rep3.represent(rep3.frame[:, 1])
        assert np.allclose(pi.toarray(), rep3.creation[1].toarray())

    def test_conjugate_frame_vector_is_annihilator(self, rep3):
        pi = rep3.represent(np.conj(rep3.frame[:, 2]))
        assert np.allclose(pi.toarray(), rep3.annihilation[2].toarray())

    def test_annihilators_kill_vacuum(self, rep3):
        for k in range(rep3.n):
            assert np.all(rep3.annihilation[k] @ rep3.vacuum == 0.0)

    def test_wrong_vector_shape(self, rep3):
        with pytest.raises(DimensionMismatch):
            rep3.coordinates(np.zeros(5))

    def test_mode_cap_enforced(self):
        with pytest.raises(DimensionGuard):
            build_fock(fermion_polarization(MAX_MODES))  # 13 modes


class TestAnticommutation:
    def test_exhaustive_generator_pairs(self, rep3):
        # all 36 ordered pairs from {pi(f_k), pi(conj f_k)}; the pairing
        # g(v, alpha w) is 1 exactly on matched cross pairs, 0 otherwise
        gens = generators(rep3)
        worst = max(car_check(rep3, v, w) for v in gens for w in gens)
        assert worst <= 1e-13

    def test_half_vector_with_conjugate(self, rep3, rng):
        # v in W with w = conj(v): the anticommutator is ||p||^2 times
        # the identity
        p = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rep3.frame @ p
        assert car_check(rep3, v, np.conj(v)) <= 1e-13
        pv, pw = rep3.represent(v), rep3.represent(np.conj(v))
        anti = (pv @ pw + pw @ pv).toarray()
        assert np.allclose(anti, np.vdot(p, p) * np.eye(8))

    def test_isotropic_pairs_anticommute(self, rep3, rng):
        # two vectors in W pair to zero, so their operators anticommute
        p1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        p2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        v, w = rep3.frame @ p1, rep3.frame @ p2
        pv, pw = rep3.represent(v), rep3.represent(w)
        assert np.abs((pv @ pw + pw @ pv).toarray()).max() <= 1e-13

    def test_random_ambient_vectors_four_modes(self, rng):
        rep = build_fock(fermion_polarization(3))
        for _ in range(10):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            w = rng.normal(size=8) + 1j * rng.normal(size=8)
            assert car_check(rep, v, w) <= 1e-12


class TestAdjointAndCyclicity:
    def test_adjoint_intertwines_conjugation(self, rep3, rng):
        # pi(y)* = pi(conj y) holds exactly: conjugating coordinates
        # swaps p and q while the matrices are exact adjoint pairs
        for _ in range(5):
            y = rng.normal(size=6) + 1j * rng.normal(size=6)
            assert adjoint_residual(rep3, y) <= 1e-14

    def test_vacuum_is_cyclic(self, rep3):
        assert vacuum_cyclicity_rank(rep3) == 8

    def test_vacuum_cyclic_four_modes(self):
        assert vacuum_cyclicity_rank(build_fock(fermion_polarization(3))) == 16


def dense_word_family(rep):
    """Columns ``c_{k_1} ... c_{k_r} |vac>`` for every mode subset, built
    densely with the modes applied in descending order."""
    creation = [c.toarray() for c in rep.creation]
    cols = np.empty((rep.dim, rep.dim), dtype=np.complex128)
    for m in range(rep.dim):
        vec = rep.vacuum
        for k in range(rep.n - 1, -1, -1):
            if m >> k & 1:
                vec = creation[k] @ vec
        cols[:, m] = vec
    return cols


class TestCyclicityCertificate:
    @pytest.mark.parametrize("modes", range(1, 8))
    def test_matches_dense_rank(self, modes):
        rep = build_fock(fermion_polarization(modes - 1))
        dense = int(np.linalg.matrix_rank(dense_word_family(rep)))
        assert dense == rep.dim
        assert vacuum_cyclicity_rank(rep) == dense

    def test_repeated_creator_is_rejected(self):
        # c1 twice: the word {0, 1} sends the vacuum to c1 c1 |vac> = 0
        rep = build_fock(fermion_polarization(3))
        c1 = rep.creation[1]
        tampered = dataclasses.replace(rep, creation=(c1,) * rep.n)
        with pytest.raises(InvariantViolation):
            vacuum_cyclicity_rank(tampered)

    def test_non_unit_entry_is_rejected(self):
        rep = build_fock(fermion_polarization(2))
        scaled = (2.0 * rep.creation[0],) + rep.creation[1:]
        with pytest.raises(InvariantViolation):
            vacuum_cyclicity_rank(dataclasses.replace(rep, creation=scaled))

    def test_repeated_supports_lower_the_rank(self):
        # a full permutation swapping 0 <-> 1 and 2 <-> 3 for both modes:
        # the words land on e1, e1, e0 after the vacuum, so two supports
        rep = build_fock(fermion_polarization(1))
        swap = sparse.csr_matrix(
            np.eye(4, dtype=np.complex128)[[1, 0, 3, 2]]
        )
        tampered = dataclasses.replace(rep, creation=(swap, swap))
        assert vacuum_cyclicity_rank(tampered) == 2
        assert int(np.linalg.matrix_rank(dense_word_family(tampered))) == 2


def rotated_frame_rep(n, seed):
    """Fock representation of a rotated standard polarization of R^2n,
    returned with the triple + frame input that ``fock-car`` reads."""
    rng = np.random.default_rng(seed)
    t = standard_triple(n)
    w = random_orthogonal(2 * n, rng) @ eigensplit(complexify(t)).lplus
    pol = OrthogonalPolarization(complexify(t), Frame(w))
    return build_fock(pol), {"triple": triple_to_json(t), "frame": frame_to_json(Frame(w))}


class TestGeneratorResiduals:
    @staticmethod
    def pairwise(rep):
        gens = generators(rep)
        car = max(car_check(rep, v, w) for v in gens for w in gens)
        return car, max(adjoint_residual(rep, g) for g in gens)

    @pytest.mark.parametrize("modes", [3, 4, 5])
    def test_fermion_agrees_with_pairwise(self, modes):
        rep = build_fock(fermion_polarization(modes - 1))
        car, adjoint = generator_residuals(rep)
        ref_car, ref_adjoint = self.pairwise(rep)
        assert abs(car - ref_car) <= 1e-13 and abs(adjoint - ref_adjoint) <= 1e-13
        assert max(car, adjoint, ref_car, ref_adjoint) <= CAR_TOL

    def test_tampered_rep_agrees_with_pairwise(self):
        # creation[0] + annihilation[0] squares to the identity, so the
        # diagonal pair (f_0, f_0) and the adjoint of f_0 fail by O(1)
        rep = build_fock(fermion_polarization(3))
        bad = (rep.creation[0] + rep.annihilation[0],) + rep.creation[1:]
        tampered = dataclasses.replace(rep, creation=bad)
        car, adjoint = generator_residuals(tampered)
        ref_car, ref_adjoint = self.pairwise(tampered)
        assert car == pytest.approx(2.0 * np.sqrt(16)) and adjoint == pytest.approx(np.sqrt(8))
        assert abs(car - ref_car) <= 1e-13 and abs(adjoint - ref_adjoint) <= 1e-13

    @pytest.mark.parametrize("modes", [3, 4, 5])
    def test_rotated_frame_agrees_with_pairwise(self, modes):
        rep, inp = rotated_frame_rep(modes, 400 + modes)
        # every column of the g-orthonormal frame mixes many coordinates
        assert np.all(np.count_nonzero(np.abs(rep.frame) > 1e-6, axis=0) > 2)
        car, adjoint = generator_residuals(rep)
        ref_car, ref_adjoint = self.pairwise(rep)
        assert abs(car - ref_car) <= 1e-13 and abs(adjoint - ref_adjoint) <= 1e-13
        assert max(car, adjoint, ref_car, ref_adjoint) <= CAR_TOL
        report, code = run_verb("fock-car", inp, Options())
        assert code == 0, report
        assert report["residuals"]["car_max"] == car
        assert report["outputs"]["cyclicity_rank"] == rep.dim


def test_fock_car_at_mode_cap():
    t0 = time.perf_counter()
    report, code = run_verb("fock-car", {"model": "fermion", "cutoff": MAX_MODES - 1}, Options())
    elapsed = time.perf_counter() - t0
    assert code == 0, report
    assert report["pass"] is True
    assert report["outputs"] == {"modes": 12, "dim": 4096, "cyclicity_rank": 4096}
    assert max(report["residuals"].values()) <= CAR_TOL
    assert elapsed < 15.0


def rotate_pairs(pol, angles):
    """Mix frame pair (2j, 2j+1) with its conjugate by angles[j]."""
    F = pol.space.g_orthonormalize(pol.wplus.matrix)
    cols = F.astype(np.complex128).copy()
    for j, t in enumerate(angles):
        a, b = 2 * j, 2 * j + 1
        if b >= F.shape[1]:
            break
        fa, fb = F[:, a].copy(), F[:, b].copy()
        cols[:, a] = np.cos(t) * fa + np.sin(t) * np.conj(fb)
        cols[:, b] = np.cos(t) * fb - np.sin(t) * np.conj(fa)
    # the g-orthonormal fermion frame has Euclidean norm 1/sqrt(2)
    return OrthogonalPolarization(pol.space, Frame(np.sqrt(2.0) * cols))


class TestEquivalenceCertificate:
    def test_same_polarization_is_zero(self):
        pol = fermion_polarization(3)
        cert = equivalence_certificate(pol, pol)
        assert cert["hs_norm"] == 0.0

    def test_rotation_is_visible(self):
        pol = fermion_polarization(3)
        cert = equivalence_certificate(pol, rotate_pairs(pol, [0.3, 0.3]))
        # each rotated pair contributes 2 sin(t)^2: sin(0.3) * sqrt(4)
        assert cert["hs_norm"] == pytest.approx(2.0 * np.sin(0.3), abs=1e-10)

    def test_decaying_angles_stabilize_with_cutoff(self):
        # t_j = 2^-j is square-summable: the certificate converges as the
        # cutoff grows (measured 1.4136 -> 1.4280)
        norms = {}
        for N in (5, 11):
            pol = fermion_polarization(N)
            angles = [2.0 ** (-j) for j in range((N + 1) // 2)]
            norms[N] = equivalence_certificate(pol, rotate_pairs(pol, angles))["hs_norm"]
        assert abs(norms[11] - norms[5]) <= 0.02

    def test_constant_angles_grow_with_cutoff(self):
        # constant 0.3 gives sin(0.3) sqrt(2 * pairs): doubling the pair
        # count scales the certificate by sqrt(2)
        norms = {}
        for N in (5, 11):
            pol = fermion_polarization(N)
            pairs = (N + 1) // 2
            norms[N] = equivalence_certificate(pol, rotate_pairs(pol, [0.3] * pairs))["hs_norm"]
            assert norms[N] == pytest.approx(np.sin(0.3) * np.sqrt(2.0 * pairs), abs=1e-10)
        assert norms[11] / norms[5] == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            equivalence_certificate(fermion_polarization(2), fermion_polarization(3))
