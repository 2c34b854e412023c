"""Chart atlas tests: indexing, chart location, transitions, index theory."""

from itertools import chain, combinations

import numpy as np
import pytest

from polargrass import linalg, orthograss
from polargrass.errors import (
    DimensionMismatch,
    FormatError,
    InvariantViolation,
    NotOrthogonal,
    OutsideChart,
    ProjectionSingular,
    ShapeViolation,
)
from polargrass.linalg import Frame, hs_norm, principal_angle_distance, right_divide
from polargrass.orthograss import (
    ChartIndex,
    OrthoGraphOperator,
    chart_polarization,
    find_chart,
    fredholm_index,
    holomorphy_check,
    transition,
    transition_derivative,
)
from polargrass.polarization import OrthogonalPolarization, complexify, eigensplit
from polargrass.sampling import random_orthogonal
from polargrass.siegel import (
    BlockSymplectic,
    PairedBlocks,
    SiegelPoint,
    block_decompose,
    chart_slots,
    chart_solve,
    graph_columns,
    mobius,
    mobius_act,
    restricted_character,
)
from polargrass.triples import standard_triple


def center(split, S):
    """g-orthonormal columns of the chart center W_S."""
    return split.basis[:, chart_slots(split.n, S.indices)[0]]


@pytest.fixture(scope="module")
def split3():
    return eigensplit(complexify(standard_triple(3)))


def random_antisymmetric(n, rng, scale=0.5):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (A - A.T) / 2


def charts(n):
    return [ChartIndex.of(c) for c in chain.from_iterable(combinations(range(1, n + 1), k)
                                                            for k in range(n + 1))]


def label(S):
    """A chart as its digits, ``0`` for the empty chart: short test ids."""
    return "".join(map(str, S.indices)) or "0"


#: Every ordered pair of charts of equal parity at n = 1..6.
EQUAL_PARITY = [(n, S1, S2) for n in range(1, 7) for S1 in charts(n) for S2 in charts(n)
                if S1.parity() == S2.parity()]


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

    def test_index_beyond_n_rejected_by_chart_slots(self, split3):
        with pytest.raises(DimensionMismatch):
            chart_slots(split3.n, ChartIndex.of((4,)).indices)

    @pytest.mark.parametrize("swapped", [[0], [-1], [1, 1], [10**30]],
                             ids=["zero", "negative", "repeated", "1e30"])
    def test_indices_outside_one_to_n_or_repeated_rejected(self, split3, swapped):
        # raw index lists reach chart_slots without a ChartIndex; none may
        # wrap around to another slot or overflow numpy's integers
        with pytest.raises(DimensionMismatch):
            chart_slots(split3.n, swapped)
        with pytest.raises(DimensionMismatch):
            graph_columns(split3, np.zeros((3, 3)), swapped)


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
        F = center(split3, ChartIndex.of(()))
        assert np.array_equal(F, split3.lplus)

    def test_singleton_chart_swaps_one_column(self, split3):
        # S = {2}: slot 2 holds the conjugate partner e_{-2}, slots 1 and 3
        # keep e_1, e_3
        F = center(split3, ChartIndex.of((2,)))
        assert np.array_equal(F[:, 0], split3.lplus[:, 0])
        assert np.array_equal(F[:, 1], split3.lminus[:, 1])
        assert np.array_equal(F[:, 2], split3.lplus[:, 2])

    def test_zero_coordinate_reproduces_center(self, split3):
        S = ChartIndex.of((1, 3))
        Z0 = OrthoGraphOperator(np.zeros((3, 3)))
        cols = graph_columns(split3, Z0.Z, S.indices)
        assert np.allclose(cols, center(split3, S))

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
        res = find_chart(Frame.from_columns(center(split3, ChartIndex.of((2,)))), split3)
        assert res.S.indices == (2,)
        assert res.kernel_dims == (1, 0)

    def test_rotated_subspaces_reconstruct(self, split3, rng):
        for _ in range(25):
            u = random_orthogonal(6, rng)
            w = Frame.from_columns(u @ split3.lplus)
            res = find_chart(w, split3)
            assert len(res.kernel_dims) - 1 <= 3  # at most n swaps
            rebuilt = Frame.from_columns(graph_columns(split3, res.Z.Z, res.S.indices))
            assert principal_angle_distance(w, rebuilt) <= 1e-9

    def test_accepts_polarization_object(self, split3, rng):
        u = random_orthogonal(6, rng)
        pol = OrthogonalPolarization(split3.space, Frame.from_columns(u @ split3.lplus))
        res = find_chart(pol, split3)
        rebuilt = Frame.from_columns(graph_columns(split3, res.Z.Z, res.S.indices))
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

    @pytest.mark.parametrize("index", [4, 10**30], ids=["n+1", "1e30"])
    def test_chart_above_n_rejected(self, rng, index):
        # n = 3: every map through the chart-change blocks refuses the index
        Z = OrthoGraphOperator(random_antisymmetric(3, rng))
        W = random_antisymmetric(3, rng)
        known, beyond = ChartIndex.of((1, 2)), ChartIndex.of((1, index))
        for S1, S2 in ((known, beyond), (beyond, known)):
            for call in (
                lambda: transition(S1, S2, Z),
                lambda: transition_derivative(S1, S2, Z, W),
                lambda: holomorphy_check(S1, S2, Z, W),
            ):
                with pytest.raises(DimensionMismatch, match=f"chart index {index} exceeds n=3"):
                    call()


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

    def test_one_invertibility_check_per_derivative_none_across_parity(self, rng, monkeypatch):
        calls = []
        check = linalg.check_invertible

        def counting(*args):
            calls.append(1)
            return check(*args)

        monkeypatch.setattr(linalg, "check_invertible", counting)
        monkeypatch.setattr(orthograss, "check_invertible", counting)
        Z = OrthoGraphOperator(random_antisymmetric(4, rng))
        with pytest.raises(OutsideChart):
            transition(ChartIndex.of(()), ChartIndex.of((1,)), Z)
        assert len(calls) == 0
        transition_derivative(ChartIndex.of(()), ChartIndex.of((1, 2)), Z, np.eye(4))
        assert len(calls) == 1

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
        rep = fredholm_index(Frame.from_columns(center(split3, ChartIndex.of((2,)))), split3)
        assert (rep.dim_ker, rep.dim_coker) == (1, 1)

    def test_kernel_equals_cokernel_random(self, split3, rng):
        for _ in range(25):
            u = random_orthogonal(6, rng)
            rep = fredholm_index(Frame.from_columns(u @ split3.lplus), split3)
            assert rep.dim_ker == rep.dim_coker
            assert rep.index == 0


class TestOrthoBlocks:
    """Orthogonal maps through the shared paired-block layer (sign -1)."""

    def test_identity_has_no_offdiagonal(self, split3):
        blocks = block_decompose(np.eye(6), split3, -1)
        assert restricted_character(blocks).hs_b <= 1e-12
        assert hs_norm(split3.compress(np.eye(6))[:3, 3:]) <= 1e-12
        assert fredholm_index(Frame.from_columns(split3.lplus), split3).dim_ker == 0

    def test_offdiagonal_norms_agree(self, split3, rng):
        for _ in range(10):
            u = random_orthogonal(6, rng)
            blocks = block_decompose(u, split3, -1)
            M = split3.compress(u)
            assert abs(hs_norm(M[:3, 3:]) - restricted_character(blocks).hs_b) <= 1e-12
            assert np.allclose(M, blocks.matrix())

    def test_compressed_map_is_unitary(self, split3, rng):
        M = block_decompose(random_orthogonal(6, rng), split3, -1).matrix()
        assert hs_norm(M.conj().T @ M - np.eye(6)) <= 1e-9

    def test_non_orthogonal_rejected(self, split3):
        with pytest.raises(NotOrthogonal):
            block_decompose(np.diag([2.0, 1, 1, 1, 1, 0.5]), split3, -1)

    def test_block_identities_enforced(self):
        with pytest.raises(NotOrthogonal):
            PairedBlocks(np.eye(2), 0.5 * np.eye(2), sign=-1)

    def test_swap_reflection_has_singular_a(self, split3):
        # swapping e_1 with its partner: a = diag(0, 1, 1) is singular, which
        # an orthogonal map may be; the image of L+ meets L- in one dimension
        a, b = np.diag([0.0, 1, 1]), np.diag([1.0, 0, 0])
        blocks = PairedBlocks(a, b, sign=-1)
        real = split3.basis @ blocks.matrix() @ split3.dual
        assert np.abs(real.imag).max() <= 1e-12
        back = block_decompose(real.real, split3, -1)
        assert hs_norm(back.a - a) <= 1e-12 and hs_norm(back.b - b) <= 1e-12
        assert fredholm_index(Frame.from_columns(real.real @ split3.lplus), split3).dim_ker == 1

    def test_compose_and_inverse(self, split3, rng):
        u1 = block_decompose(random_orthogonal(6, rng), split3, -1)
        u2 = block_decompose(random_orthogonal(6, rng), split3, -1)
        prod = u1.compose(u2)
        assert prod.sign == -1
        assert hs_norm(prod.matrix() - u1.matrix() @ u2.matrix()) <= 1e-12
        e = u1.compose(u1.inverse())
        assert hs_norm(e.a - np.eye(3)) <= 1e-12
        assert hs_norm(e.b) <= 1e-12

    def test_restricted_character_routes_agree(self, split3, rng):
        for _ in range(10):
            rep = restricted_character(block_decompose(random_orthogonal(6, rng), split3, -1))
            assert abs(rep.hs_jdef - rep.hs_jdef_direct) <= 1e-12

    def test_action_matches_subspace_motion(self, split3, rng):
        # moving the coordinate and moving the subspace agree
        empty = ChartIndex.of(())
        for _ in range(10):
            u = random_orthogonal(6, rng)
            Z = OrthoGraphOperator(random_antisymmetric(3, rng))
            moved = mobius_act(block_decompose(u, split3, -1), Z)
            assert isinstance(moved, OrthoGraphOperator)
            expect = Frame.from_columns(u @ graph_columns(split3, Z.Z, empty.indices))
            got = Frame.from_columns(graph_columns(split3, moved.Z, empty.indices))
            assert principal_angle_distance(got, expect) <= 1e-12

    @pytest.mark.parametrize("n, S1, S2", EQUAL_PARITY,
                             ids=[f"{n}:{label(S1)}>{label(S2)}" for n, S1, S2 in EQUAL_PARITY])
    def test_transition_is_the_action_of_its_swap_blocks(self, n, S1, S2):
        # the dense reference: the paired-block action of the diagonal 0/1
        # blocks a (keeps the slots whose pairing agrees) and b (swaps the rest)
        rng = np.random.default_rng([n, len(S1), *S1.indices, *S2.indices])
        same = np.array([float((j in S1) == (j in S2)) for j in range(1, n + 1)])
        a, b = np.diag(same), np.diag(1.0 - same)
        Z = OrthoGraphOperator(random_antisymmetric(n, rng))
        W = random_antisymmetric(n, rng)
        psi = mobius(a, b, Z.Z, 1e-10, OutsideChart, "outside")
        Z2 = transition(S1, S2, Z).Z
        assert np.array_equal(Z2, psi)
        assert np.array_equal(Z2, mobius_act(PairedBlocks(a, b, sign=-1), Z).Z)
        dpsi = right_divide(a @ W - psi @ b @ W, a + b @ Z.Z, 1e-10, OutsideChart, "outside")
        assert np.array_equal(transition_derivative(S1, S2, Z, W), dpsi)

    def test_sign_mismatch_is_named(self):
        with pytest.raises(ShapeViolation):
            mobius_act(BlockSymplectic.identity(3), OrthoGraphOperator(np.zeros((3, 3))))
        with pytest.raises(ShapeViolation):
            mobius_act(PairedBlocks.identity(3, sign=-1), SiegelPoint(np.zeros((3, 3))))
        with pytest.raises(ShapeViolation):
            PairedBlocks.identity(3).compose(PairedBlocks.identity(3, sign=-1))
        with pytest.raises(FormatError):
            PairedBlocks(np.eye(2), np.zeros((2, 2)), sign=0)


class TestChartSolve:
    def test_one_svd_per_stage(self, split3, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        w = Frame.from_columns(split3.lplus)
        assert find_chart(w, split3).kernel_dims == (0,)
        assert len(calls) == 1
        calls.clear()
        res = find_chart(Frame.from_columns(np.conj(split3.lplus)), split3)
        assert res.kernel_dims == (3, 2, 1, 0) and res.S.indices == (1, 2, 3)
        assert len(calls) == 3 + 1

    def test_graph_over_lplus_is_read_back(self, split3, rng):
        # the solve graph_operator makes, on an antisymmetric coordinate
        Z = random_antisymmetric(3, rng)
        w = Frame.from_columns(split3.lplus + split3.lminus @ Z)
        found = find_chart(w, split3)
        assert found.S.indices == ()
        assert hs_norm(found.Z.Z - Z) <= 1e-12
        assert hs_norm(chart_solve(split3.dual, w.matrix)[1] - Z) <= 1e-12

    def test_non_finite_projection_is_named(self, split3):
        cols = np.array(split3.lplus)
        cols[0, 0] = np.nan
        with pytest.raises(ProjectionSingular):
            chart_solve(split3.dual, cols)
