"""Chart atlas tests: indexing, chart location, transitions, index theory."""

import numpy as np
import pytest

from polargrass.errors import (
    DimensionMismatch,
    FormatError,
    InvariantViolation,
    NotOrthogonal,
    OutsideChart,
)
from polargrass.linalg import Frame, hs_norm, principal_angle_distance
from polargrass.orthograss import (
    ChartIndex,
    OrthoGraphOperator,
    chart_frame,
    chart_graph_columns,
    chart_polarization,
    find_chart,
    fredholm_index,
    holomorphy_check,
    ortho_block_check,
    transition,
    transition_derivative,
)
from polargrass.polarization import OrthogonalPolarization, complexify, eigensplit
from polargrass.sampling import random_orthogonal
from polargrass.triples import standard_triple


@pytest.fixture(scope="module")
def split3():
    return eigensplit(complexify(standard_triple(3)))


def random_antisymmetric(n, rng, scale=0.5):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (A - A.T) / 2


class TestChartIndex:
    def test_sorted_and_one_based(self):
        S = ChartIndex.of((3, 1))
        assert S.indices == (1, 3)
        assert 1 in S and 2 not in S
        assert len(S) == 2

    def test_duplicates_rejected(self):
        with pytest.raises(FormatError):
            ChartIndex.of((2, 2))

    def test_zero_and_negative_rejected(self):
        with pytest.raises(FormatError):
            ChartIndex.of((0, 1))
        with pytest.raises(FormatError):
            ChartIndex.of((-1,))

    def test_parity(self):
        assert ChartIndex.of(()).parity() == 0
        assert ChartIndex.of((2,)).parity() == 1
        assert ChartIndex.of((1, 3)).parity() == 0

    def test_index_beyond_n_rejected_by_chart_frame(self, split3):
        with pytest.raises(DimensionMismatch):
            chart_frame(split3, ChartIndex.of((4,)))


class TestGraphOperator:
    def test_antisymmetric_accepted_and_frozen(self):
        Z = OrthoGraphOperator(np.array([[0, 2j], [-2j, 0]]))
        with pytest.raises(ValueError):
            Z.Z[0, 1] = 0.0

    def test_symmetric_rejected(self):
        with pytest.raises(InvariantViolation):
            OrthoGraphOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestChartCenters:
    def test_empty_chart_is_lplus(self, split3):
        F = chart_frame(split3, ChartIndex.of(()))
        assert np.array_equal(F, split3.lplus)

    def test_singleton_chart_swaps_one_column(self, split3):
        # S = {2}: slot 2 holds the conjugate partner e_{-2}, slots 1 and 3
        # keep e_1, e_3
        F = chart_frame(split3, ChartIndex.of((2,)))
        assert np.array_equal(F[:, 0], split3.lplus[:, 0])
        assert np.array_equal(F[:, 1], split3.lminus[:, 1])
        assert np.array_equal(F[:, 2], split3.lplus[:, 2])

    def test_zero_coordinate_reproduces_center(self, split3):
        S = ChartIndex.of((1, 3))
        Z0 = OrthoGraphOperator(np.zeros((3, 3)))
        cols = chart_graph_columns(split3, S, Z0)
        assert np.allclose(cols, chart_frame(split3, S))

    def test_chart_polarization_is_isotropic(self, split3):
        # OrthogonalPolarization validates isotropy on construction, so a
        # clean return is itself the assertion
        Z = OrthoGraphOperator(np.array([[0, 0.3, 0], [-0.3, 0, -0.1], [0, 0.1, 0]]) * 1j)
        pol = chart_polarization(split3, ChartIndex.of(()), Z)
        assert pol.wplus.rank == 3


class TestFindChart:
    def test_lplus_lands_in_empty_chart(self, split3):
        res = find_chart(Frame.from_columns(split3.lplus), split3)
        assert res.S.indices == ()
        assert res.kernel_dims == (0,)
        assert hs_norm(res.Z.Z) <= 1e-12

    def test_conjugate_needs_all_swaps(self, split3):
        # W = conj(L+) projects to zero on L+, so the kernel starts at n
        # and shrinks by one per swap: dims (3, 2, 1, 0)
        res = find_chart(Frame.from_columns(np.conj(split3.lplus)), split3)
        assert res.S.indices == (1, 2, 3)
        assert res.kernel_dims == (3, 2, 1, 0)
        assert hs_norm(res.Z.Z) <= 1e-12

    def test_single_swap_center(self, split3):
        res = find_chart(Frame.from_columns(chart_frame(split3, ChartIndex.of((2,)))), split3)
        assert res.S.indices == (2,)
        assert res.kernel_dims == (1, 0)

    def test_rotated_subspaces_reconstruct(self, split3, rng):
        for _ in range(25):
            u = random_orthogonal(6, rng)
            w = Frame.from_columns(u @ split3.lplus)
            res = find_chart(w, split3)
            assert len(res.kernel_dims) - 1 <= 3  # at most n swaps
            rebuilt = Frame.from_columns(chart_graph_columns(split3, res.S, res.Z))
            assert principal_angle_distance(w, rebuilt) <= 1e-9

    def test_accepts_polarization_object(self, split3, rng):
        u = random_orthogonal(6, rng)
        pol = OrthogonalPolarization(split3.space, Frame.from_columns(u @ split3.lplus))
        res = find_chart(pol, split3)
        rebuilt = Frame.from_columns(chart_graph_columns(split3, res.S, res.Z))
        assert principal_angle_distance(pol.wplus, rebuilt) <= 1e-9

    def test_wrong_shape_rejected(self, split3):
        with pytest.raises(DimensionMismatch):
            find_chart(Frame.from_columns(np.eye(6)[:, :2]), split3)


class TestTransition:
    def test_same_chart_is_identity(self):
        Z = OrthoGraphOperator(np.array([[0, 0.7j], [-0.7j, 0]]))
        S = ChartIndex.of((1, 2))
        Z2 = transition(S, S, Z)
        assert np.allclose(Z2.Z, Z.Z)

    def test_full_swap_inverts(self):
        # n=2, {} -> {1,2}: blocks a=0, b=c=I, d=0 give Z2 = Z^{-1};
        # for Z = [[0, t], [-t, 0]] that is [[0, -1/t], [1/t, 0]]
        t = 0.4
        Z = OrthoGraphOperator(np.array([[0, t], [-t, 0]], dtype=complex))
        Z2 = transition(ChartIndex.of(()), ChartIndex.of((1, 2)), Z)
        assert abs(Z2.Z[0, 1] - (-2.5)) <= 1e-12
        assert abs(Z2.Z[1, 0] - 2.5) <= 1e-12

    def test_roundtrip(self, rng):
        Z = OrthoGraphOperator(random_antisymmetric(4, rng))
        Sa, Sb = ChartIndex.of(()), ChartIndex.of((1, 2))
        back = transition(Sb, Sa, transition(Sa, Sb, Z))
        assert hs_norm(back.Z - Z.Z) <= 1e-10

    def test_cocycle(self, rng):
        # psi_bc(psi_ab(Z)) = psi_ac(Z) on the triple overlap
        Sa, Sb, Sc = ChartIndex.of(()), ChartIndex.of((1, 2)), ChartIndex.of((2, 3))
        Za = OrthoGraphOperator(random_antisymmetric(4, rng, scale=0.6))
        Zb = transition(Sa, Sb, Za)
        direct = transition(Sa, Sc, Za)
        via = transition(Sb, Sc, Zb)
        assert hs_norm(via.Z - direct.Z) <= 1e-12

    def test_parity_obstruction(self, rng):
        # |S1 delta S2| odd forces an odd-size antisymmetric denominator
        # block, which is always singular: no point of one component lies
        # in a chart of the other
        Sa, Sb = ChartIndex.of(()), ChartIndex.of((1,))
        for Zm in (np.zeros((3, 3)), random_antisymmetric(3, rng), random_antisymmetric(3, rng)):
            with pytest.raises(OutsideChart):
                transition(Sa, Sb, OrthoGraphOperator(Zm))

    def test_center_outside_fully_swapped_chart(self):
        # Z = 0 at {} is L+ itself, which the {1,2} chart cannot see
        Z0 = OrthoGraphOperator(np.zeros((2, 2)))
        with pytest.raises(OutsideChart):
            transition(ChartIndex.of(()), ChartIndex.of((1, 2)), Z0)


class TestDerivative:
    def test_matches_finite_differences(self, rng):
        Sa, Sb = ChartIndex.of(()), ChartIndex.of((1, 2))
        Za = OrthoGraphOperator(random_antisymmetric(4, rng, scale=0.6))
        W = random_antisymmetric(4, rng, scale=1.0)
        rep = holomorphy_check(Sa, Sb, Za, W, step=1e-5)
        assert rep.fd_residual <= 1e-6
        assert rep.cr_residual <= 1e-6
        assert rep.max_residual == max(rep.fd_residual, rep.cr_residual)

    def test_step_halving_ratio_is_quadratic(self, rng):
        # central differences are O(step^2): halving the step should
        # shrink the residual by about 1/4
        Sa, Sb = ChartIndex.of(()), ChartIndex.of((1, 2))
        Za = OrthoGraphOperator(random_antisymmetric(4, rng, scale=0.6))
        W = random_antisymmetric(4, rng, scale=1.0)
        r1 = holomorphy_check(Sa, Sb, Za, W, step=1e-5).fd_residual
        r2 = holomorphy_check(Sa, Sb, Za, W, step=5e-6).fd_residual
        assert 0.15 <= r2 / r1 <= 0.35

    def test_dimension_mismatch(self, rng):
        Za = OrthoGraphOperator(random_antisymmetric(4, rng))
        with pytest.raises(DimensionMismatch):
            transition_derivative(ChartIndex.of(()), ChartIndex.of((1, 2)), Za, np.zeros((3, 3)))

    def test_derivative_outside_chart(self):
        Z0 = OrthoGraphOperator(np.zeros((2, 2)))
        with pytest.raises(OutsideChart):
            transition_derivative(ChartIndex.of(()), ChartIndex.of((1, 2)), Z0, np.eye(2))


class TestFredholm:
    def test_lplus_has_trivial_kernel(self, split3):
        rep = fredholm_index(Frame.from_columns(split3.lplus), split3)
        assert (rep.dim_ker, rep.dim_coker) == (0, 0)
        assert rep.index == 0

    def test_conjugate_has_full_kernel(self, split3):
        rep = fredholm_index(Frame.from_columns(np.conj(split3.lplus)), split3)
        assert (rep.dim_ker, rep.dim_coker) == (3, 3)

    def test_center_kernel_counts_swaps(self, split3):
        # W_S meets L- exactly in the swapped directions
        rep = fredholm_index(Frame.from_columns(chart_frame(split3, ChartIndex.of((2,)))), split3)
        assert (rep.dim_ker, rep.dim_coker) == (1, 1)

    def test_kernel_equals_cokernel_random(self, split3, rng):
        for _ in range(25):
            u = random_orthogonal(6, rng)
            rep = fredholm_index(Frame.from_columns(u @ split3.lplus), split3)
            assert rep.dim_ker == rep.dim_coker
            assert rep.index == 0


class TestOrthoBlocks:
    def test_identity_has_no_offdiagonal(self, split3):
        rep = ortho_block_check(np.eye(6), split3)
        assert rep.hs_b <= 1e-12
        assert rep.hs_c <= 1e-12
        assert rep.dim_ker_a == 0

    def test_offdiagonal_norms_agree(self, split3, rng):
        for _ in range(10):
            rep = ortho_block_check(random_orthogonal(6, rng), split3)
            assert abs(rep.hs_b - rep.hs_c) <= 1e-12
            assert np.allclose(rep.blocks.b, np.conj(rep.blocks.c))
            assert np.allclose(rep.blocks.d, np.conj(rep.blocks.a))

    def test_compressed_map_is_unitary(self, split3, rng):
        rep = ortho_block_check(random_orthogonal(6, rng), split3)
        M = np.block([[rep.blocks.a, rep.blocks.b], [rep.blocks.c, rep.blocks.d]])
        assert hs_norm(M.conj().T @ M - np.eye(6)) <= 1e-9

    def test_non_orthogonal_rejected(self, split3):
        with pytest.raises(NotOrthogonal):
            ortho_block_check(np.diag([2.0, 1, 1, 1, 1, 0.5]), split3)
