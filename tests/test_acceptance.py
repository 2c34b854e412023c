"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints its worst measured residuals and
elapsed time (visible with ``-s`` or on failure).
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from polargrass.circle import (
    BosonModel,
    compose_diffeos,
    composition_blocks,
    composition_operator,
    fermion_polarization,
    fourier_flow_diffeo,
    grunsky,
    mobius_diffeo,
    mode_indices,
    rotation_diffeo,
    torus_period,
)
from polargrass.cli import main as cli_main
from polargrass.errors import NotPositive, NotUpperHalf
from polargrass.fock import (
    adjoint_residual,
    build_fock,
    car_check,
    vacuum_cyclicity_rank,
)
from polargrass.linalg import Frame, hs_norm, op_norm, principal_angle_distance
from polargrass.orthograss import (
    ChartIndex,
    OrthoGraphOperator,
    find_chart,
    fredholm_index,
    holomorphy_check,
    transition,
)
from polargrass.polarization import complexify, eigensplit
from polargrass.sampling import (
    random_contraction,
    random_invertible,
    random_orthogonal,
    random_symplectic,
    random_unitary,
)
from polargrass.siegel import (
    BlockSymplectic,
    SiegelPoint,
    graph_frame,
    graph_operator,
    mobius_act,
    restricted_character,
    sp_from_siegel_point,
)
from polargrass.triples import (
    ComplexStructure,
    complete_from_g_J,
    complete_from_g_omega,
    complete_from_J_omega,
    pullback_triple,
    standard_triple,
    verify_triple,
)

from conftest import CliRunner

_SPLITS = {}


def split_for(n):
    if n not in _SPLITS:
        _SPLITS[n] = eigensplit(complexify(standard_triple(n)))
    return _SPLITS[n]


def conditioned_invertible(dim, rng):
    """Invertible map with singular values in [e^-1.5, e^1.5].

    Conditioning enters the triple identities squared, so an unbounded
    ensemble would bury the 1e-9 acceptance scale in roundoff for some
    seeds; capping cond(u) at e^3 ~ 20 keeps the criterion meaningful.
    """
    s = np.exp(rng.uniform(-1.5, 1.5, size=dim))
    return random_orthogonal(dim, rng) @ (s[:, None] * random_orthogonal(dim, rng))


def test_c01_pullback_triples_verify_and_complete():
    t0 = time.perf_counter()
    sizes = [1, 4, 16]
    worst_identity = worst_recovery = 0.0
    for i in range(200):
        n = sizes[i % 3]
        rng = np.random.default_rng(1000 + i)
        t = pullback_triple(conditioned_invertible(2 * n, rng), standard_triple(n))
        rep = verify_triple(t.g, t.J, t.omega)
        worst_identity = max(worst_identity, rep.max_residual)
        from_gj = complete_from_g_J(t.g, t.J)
        from_gw = complete_from_g_omega(t.g, t.omega)
        from_jw = complete_from_J_omega(t.J, t.omega)
        worst_recovery = max(
            worst_recovery,
            hs_norm(from_gj.Omega - t.Omega),
            hs_norm(from_gw.Jmat - t.Jmat),
            hs_norm(from_jw.G - t.G),
        )
    elapsed = time.perf_counter() - t0
    assert worst_identity <= 1e-9
    assert worst_recovery <= 1e-9
    assert elapsed < 5.0
    print(
        f"C01 pullback verify+complete: PASS "
        f"(identities {worst_identity:.2e}, recovery {worst_recovery:.2e}, {elapsed:.2f}s)"
    )


def test_c02_negated_structure_always_rejected():
    rejected = 0
    for i in range(100):
        n = [1, 2, 4][i % 3]
        rng = np.random.default_rng(2000 + i)
        t = pullback_triple(random_invertible(2 * n, rng), standard_triple(n))
        with pytest.raises(NotPositive):
            complete_from_J_omega(ComplexStructure(-t.Jmat), t.omega)
        rejected += 1
    assert rejected == 100
    print(f"C02 negated structure rejection: PASS ({rejected}/100)")


def test_c03_graph_correspondence_round_trips():
    t0 = time.perf_counter()
    worst_operator = worst_subspace = 0.0
    for i in range(100):
        n = (i % 16) + 1
        rng = np.random.default_rng(3000 + i)
        split = split_for(n)
        Z = random_contraction(n, rng)
        w = graph_frame(SiegelPoint(Z), split)
        back = graph_operator(w, split)
        worst_operator = max(worst_operator, hs_norm(back.Z - Z))
        # the same subspace under a column mix must map to the same point
        mixed = Frame.from_columns(w.matrix @ random_unitary(n, rng))
        rebuilt = graph_frame(graph_operator(mixed, split), split)
        worst_subspace = max(worst_subspace, principal_angle_distance(w, rebuilt))
    elapsed = time.perf_counter() - t0
    assert worst_operator <= 1e-9
    assert worst_subspace <= 1e-8
    assert elapsed < 10.0
    print(
        f"C03 graph correspondence: PASS "
        f"(operator {worst_operator:.2e}, subspace {worst_subspace:.2e}, {elapsed:.2f}s)"
    )


def test_c04_symplectic_action_identities():
    worst_blocks = worst_law = worst_transitive = 0.0
    for i in range(100):
        n = (i % 8) + 1
        rng = np.random.default_rng(4000 + i)
        u = random_symplectic(n, rng)
        eye = np.eye(n)
        worst_blocks = max(
            worst_blocks, hs_norm(u.a.conj().T @ u.a - u.b.conj().T @ u.b - eye)
        )
        v = random_symplectic(n, rng)
        p = SiegelPoint(random_contraction(n, rng))
        once = mobius_act(u.compose(v), p)
        twice = mobius_act(u, mobius_act(v, p))
        worst_law = max(worst_law, hs_norm(once.Z - twice.Z))
        Z = random_contraction(n, rng)
        at_origin = mobius_act(sp_from_siegel_point(SiegelPoint(Z)), SiegelPoint(np.zeros((n, n))))
        worst_transitive = max(worst_transitive, hs_norm(at_origin.Z - Z))
    assert worst_blocks <= 1e-9
    assert worst_law <= 1e-8
    assert worst_transitive <= 1e-9
    print(
        f"C04 symplectic action: PASS "
        f"(blocks {worst_blocks:.2e}, group law {worst_law:.2e}, "
        f"transitivity {worst_transitive:.2e})"
    )


def test_c05_structure_deformation_norms():
    worst_gap = 0.0
    for i in range(50):
        n = (i % 6) + 1
        rng = np.random.default_rng(5000 + i)
        rep = restricted_character(random_symplectic(n, rng))
        worst_gap = max(worst_gap, abs(rep.hs_jdef - rep.hs_jdef_direct))
        assert (rep.hs_jdef <= 1e-10) == (rep.hs_b <= 1e-10)
    assert worst_gap <= 1e-8
    # b = 0 exactly: the deformation vanishes
    unitary_only = restricted_character(
        BlockSymplectic.from_unitary(random_unitary(4, np.random.default_rng(5100)))
    )
    assert unitary_only.hs_jdef <= 1e-10
    # a boost has b != 0 and a visible deformation
    r = 0.5
    boost = BlockSymplectic(np.cosh(r) * np.eye(1), np.sinh(r) * np.eye(1))
    assert restricted_character(boost).hs_jdef > 1e-10
    print(f"C05 deformation norms: PASS (route gap {worst_gap:.2e})")


def test_c06_chart_atlas():
    t0 = time.perf_counter()
    for i in range(100):
        n = (i % 16) + 1
        rng = np.random.default_rng(6000 + i)
        split = split_for(n)
        w = Frame.from_columns(random_orthogonal(2 * n, rng) @ split.lplus)
        found = find_chart(w, split)
        assert len(found.kernel_dims) - 1 <= n  # at most n descent steps
        assert found.kernel_dims[-1] == 0
        fred = fredholm_index(w, split)
        assert fred.dim_ker == fred.dim_coker
    # cocycle on triple overlaps
    Sa, Sb, Sc = ChartIndex.of(()), ChartIndex.of((1, 2)), ChartIndex.of((2, 3))
    worst_cocycle = 0.0
    for i in range(5):
        rng = np.random.default_rng(6200 + i)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        Za = OrthoGraphOperator(0.6 * (A - A.T) / 2, atol=1e-8)
        via = transition(Sb, Sc, transition(Sa, Sb, Za))
        worst_cocycle = max(worst_cocycle, hs_norm(via.Z - transition(Sa, Sc, Za).Z))
    assert worst_cocycle <= 1e-7
    # holomorphy of the transition with a quadratic step-halving signature
    worst_holo = 0.0
    for i in range(3):
        rng = np.random.default_rng(6300 + i)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        Za = OrthoGraphOperator(0.6 * (A - A.T) / 2, atol=1e-8)
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        W = (B - B.T) / 2
        rep = holomorphy_check(Sa, Sb, Za, W, step=1e-5)
        half = holomorphy_check(Sa, Sb, Za, W, step=5e-6)
        worst_holo = max(worst_holo, rep.max_residual)
        assert 0.15 <= half.fd_residual / rep.fd_residual <= 0.35
    assert worst_holo <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"C06 chart atlas: PASS "
        f"(cocycle {worst_cocycle:.2e}, holomorphy {worst_holo:.2e}, {elapsed:.2f}s)"
    )


def test_c07_circle_operators():
    t0 = time.perf_counter()
    N, K = 32, 512
    model = BosonModel(N)
    Om = model.omega_mode_matrix()
    keep = np.array([abs(m) <= 16 for m in mode_indices(N)])
    worst_inv = 0.0
    for phi in (
        mobius_diffeo(0.1 + 0.05j),
        fourier_flow_diffeo([(2, 0.15)]),
        rotation_diffeo(0.7),
    ):
        C = composition_operator(phi, N, K)
        D = C.T @ Om @ C - Om
        worst_inv = max(worst_inv, hs_norm(D[np.ix_(keep, keep)]))
    assert worst_inv <= 1e-6

    Zm = grunsky(mobius_diffeo(0.3), N, K)
    assert op_norm(Zm.Z) <= 1e-6
    worst_sym = hs_norm(Zm.Z - Zm.Z.T)
    for coeffs in ([(2, 0.3)], [(2, 0.15)], [(3, 0.2)]):
        Z = grunsky(fourier_flow_diffeo(coeffs), N, K)
        worst_sym = max(worst_sym, hs_norm(Z.Z - Z.Z.T))
        assert op_norm(Z.Z) < 1.0
    assert worst_sym <= 1e-6

    worst_res = 0.0
    for coeffs in ([(2, 0.3)], [(2, 0.15)]):
        Z32 = grunsky(fourier_flow_diffeo(coeffs), 32, 512).Z
        Z64 = grunsky(fourier_flow_diffeo(coeffs), 64, 1024).Z
        worst_res = max(worst_res, hs_norm(Z64[:32, :32] - Z32))
    assert worst_res <= 1e-5

    flow = fourier_flow_diffeo([(2, 0.1)])
    mob = mobius_diffeo(0.2)
    flow2 = fourier_flow_diffeo([(3, 0.08)])
    worst_coh = 0.0
    for phi1, phi2 in ((flow, mob), (mob, flow), (flow, flow2)):
        lhs = composition_blocks(phi1, N, K).transform(grunsky(phi2, N, K).Z)
        rhs = grunsky(compose_diffeos(phi2, phi1), N, K).Z
        worst_coh = max(worst_coh, hs_norm(lhs - rhs))
    assert worst_coh <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"C07 circle operators: PASS "
        f"(invariance {worst_inv:.2e}, symmetry {worst_sym:.2e}, "
        f"two-resolution {worst_res:.2e}, coherence {worst_coh:.2e}, {elapsed:.2f}s)"
    )


def test_c08_clifford_representation():
    t0 = time.perf_counter()
    rep = build_fock(fermion_polarization(3))  # four modes, dim 16
    gens = [rep.frame[:, k] for k in range(rep.n)]
    gens += [np.conj(g) for g in gens]
    worst_car = max(car_check(rep, v, w) for v in gens for w in gens)
    assert worst_car <= 1e-12
    assert vacuum_cyclicity_rank(rep) == 16
    rng = np.random.default_rng(8000)
    worst_adj = max(
        adjoint_residual(rep, rng.normal(size=8) + 1j * rng.normal(size=8))
        for _ in range(10)
    )
    assert worst_adj <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"C08 Clifford representation: PASS "
        f"(car {worst_car:.2e}, adjoint {worst_adj:.2e}, {elapsed:.2f}s)"
    )


def test_c09_torus_periods():
    t0 = time.perf_counter()
    for tau in (1j, 0.5 + 0.5j, 2j):
        rep = torus_period(tau)
        assert abs(rep.point.Z[0, 0] - tau) <= 1e-12
        assert max(rep.residuals.values()) <= 1e-9
    with pytest.raises(NotUpperHalf):
        torus_period(0.5 - 0.5j)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"C09 torus periods: PASS ({elapsed:.2f}s)")


def test_c10_suite_reports_are_reproducible(tmp_path):
    config = str(resources.files("polargrass").joinpath("configs/acceptance_suite.json"))
    runner = CliRunner()
    payloads = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        result = runner.invoke(
            cli_main, ["report-suite", "--input", config, "--output", str(out)]
        )
        assert result.exit_code == 0, result.output
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    agg = json.loads(payloads[0])
    assert agg["pass"] is True and agg["counts"]["failed"] == 0
    print(
        f"C10 reproducible suite: PASS "
        f"({agg['counts']['passed']} passed, "
        f"{agg['counts']['expected_failures']} expected failures, byte-identical)"
    )
