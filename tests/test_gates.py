"""Every gate fails a NaN residual by name, and verbs report what gates computed."""

import argparse
import dataclasses
import itertools

import numpy as np
import pytest

from polargrass import circle, cli, fock, linalg, orthograss, polarization, siegel, triples
from polargrass.circle import CircleDiffeo, composition_operator
from polargrass.errors import (
    BoundaryContact,
    EigenspaceDimension,
    FormatError,
    InvariantViolation,
    NoPairing,
    NonHermitian,
    NotAComplexStructure,
    NotComplementary,
    NotIncreasing,
    NotOrthogonal,
    NotPositive,
    NotPositiveDefinite,
    NotRealizable,
    NotSkewAdjoint,
    NotSkewSymmetric,
    NotSymplectic,
    NotUpperHalf,
    RankMismatch,
    ShapeViolation,
)
from polargrass.linalg import Frame, hs_norm
from polargrass.polarization import (
    EigenSplit,
    OrthogonalPolarization,
    PositiveSymplecticPolarization,
    across_norm,
    complexify,
    eigensplit,
    triple_from_polarization,
)
from polargrass.sampling import generate_input, random_invertible
from polargrass.siegel import (
    PairedBlocks,
    SiegelPoint,
    UpperHalfPoint,
    block_decompose,
    disk_to_halfspace,
)
from polargrass.triples import (
    BilinearForm,
    CompatibleTriple,
    ComplexStructure,
    complete_from_g_J,
    complete_from_g_omega,
    complete_from_J_omega,
    pullback_triple,
    standard_triple,
    verify_triple,
)

NAN = float("nan")
T2 = standard_triple(2)
SPACE2 = complexify(T2)
SPLIT2 = eigensplit(SPACE2)


def _nan_at(module, name, call=1):
    """``(module, name, fake)``: ``fake`` returns what ``module.name`` returns,
    except NaN on its ``call``-th call."""
    real = getattr(module, name)
    calls = itertools.count(1)

    def fake(*args, **kwargs):
        out = real(*args, **kwargs)
        return NAN if next(calls) == call else out

    return module, name, fake


def _nan_eigvals(*args, **kwargs):
    return np.full(2, NAN)


def _complex_nan(a, square=False):
    return np.array([[1.0 + NAN * 1j]])


def _nan_report(t):
    bad = dataclasses.replace(t.report, residuals={**t.report.residuals, "g_from_omega_J": NAN})
    object.__setattr__(t, "report", bad)
    return t


def _nan_kernel(dual, cols, swapped=()):
    return 1, np.full(cols.shape[1], NAN)


def _orthogonal_pol():
    return OrthogonalPolarization(SPACE2, Frame(SPLIT2.lplus))


ORTHOGONAL_POL = _orthogonal_pol()
ZERO_POINT = SiegelPoint(np.zeros((2, 2)))


def _positive_pol():
    return PositiveSymplecticPolarization(SPACE2, Frame(SPLIT2.lplus))


def _nan_boundary():
    def boundary(t):
        return np.where(np.asarray(t) > 1.0, NAN, np.exp(1j * np.asarray(t)))

    return CircleDiffeo("custom", {}, boundary=boundary)


J2 = standard_triple(1).Jmat
# (id, patch or None, call, expected error); the call runs with the patch in place
NAN_GATES = [
    ("as_real_matrix", (linalg, "as_matrix", _complex_nan),
     lambda: linalg.as_real_matrix(np.eye(1)), FormatError),
    ("Frame", _nan_at(linalg, "hs_norm"), lambda: Frame(np.eye(2)), RankMismatch),
    ("Frame.from_columns", (linalg.np.linalg, "qr", lambda a: (a, np.diag([1.0, NAN]))),
     lambda: Frame.from_columns(np.eye(2)), RankMismatch),
    ("hermitian", _nan_at(linalg, "hs_norm"), lambda: linalg.sqrt_pair_hermitian(np.eye(2)),
     NonHermitian),
    ("spd_powers", (linalg.np.linalg, "eigh", lambda a: (np.full(2, NAN), np.eye(2))),
     lambda: linalg.sqrt_pair_hermitian(np.eye(2)), NotPositiveDefinite),
    ("form symmetry", _nan_at(linalg, "symmetry_deviation"),
     lambda: BilinearForm("symmetric", np.eye(2)), InvariantViolation),
    ("form degenerate", _nan_at(triples, "smallest_singular_value"),
     lambda: BilinearForm("symmetric", np.eye(2)), InvariantViolation),
    ("complex structure", _nan_at(triples, "hs_norm"), lambda: ComplexStructure(J2),
     NotAComplexStructure),
    # verify_triple takes the three operand norms first, then the residuals
    ("triple identities", _nan_at(triples, "hs_norm", 4),
     lambda: CompatibleTriple(T2.g, T2.J, T2.omega), InvariantViolation),
    ("triple positivity", _nan_at(triples, "min_eig_hermitian"),
     lambda: CompatibleTriple(T2.g, T2.J, T2.omega), NotPositive),
    ("complete g J", _nan_at(triples, "hs_norm"), lambda: complete_from_g_J(T2.g, T2.J),
     NotSkewAdjoint),
    ("complete g omega", _nan_at(triples, "hs_norm"),
     lambda: complete_from_g_omega(T2.g, T2.omega), NotAComplexStructure),
    ("complete J omega", _nan_at(linalg, "symmetry_deviation"),
     lambda: complete_from_J_omega(T2.J, T2.omega), NotSkewSymmetric),
    ("complexify", None, lambda: complexify(_nan_report(standard_triple(2))),
     InvariantViolation),
    # a NaN column: built without error before the gate was routed
    ("EigenSplit eigenvector", None,
     lambda: EigenSplit(SPACE2, np.where([[True, False]] * 4, SPLIT2.lplus, NAN)),
     EigenspaceDimension),
    # the eigenvector gate takes hs_norm twice (residual and ||J||)
    ("EigenSplit gram", _nan_at(polarization, "hs_norm", 3),
     lambda: EigenSplit(SPACE2, SPLIT2.lplus), InvariantViolation),
    ("eigensplit eigenvalues", _nan_at(polarization, "hs_norm"), lambda: eigensplit(SPACE2),
     EigenspaceDimension),
    ("isotropy", _nan_at(polarization, "hs_norm"), _orthogonal_pol, InvariantViolation),
    ("orthogonal spanning", _nan_at(polarization, "hs_norm", 3), _orthogonal_pol,
     NotComplementary),
    ("positive spanning", _nan_at(polarization, "smallest_singular_value"), _positive_pol,
     NotComplementary),
    ("positive positivity", (polarization.np.linalg, "eigvalsh", _nan_eigvals), _positive_pol,
     NotPositive),
    ("realizable real", _nan_at(polarization, "hs_norm"),
     lambda: triple_from_polarization(ORTHOGONAL_POL), NotRealizable),
    ("across_norm", _nan_at(polarization, "smallest_singular_value"),
     lambda: across_norm(SPLIT2.lplus, SPLIT2.lplus), NotComplementary),
    ("SignedMatrix symmetry", _nan_at(linalg, "symmetry_deviation"),
     lambda: SiegelPoint(np.zeros((2, 2))), InvariantViolation),
    ("SiegelPoint contraction", _nan_at(siegel, "op_norm"),
     lambda: SiegelPoint(np.zeros((2, 2))), InvariantViolation),
    ("UpperHalfPoint", _nan_at(siegel, "min_eig_hermitian"),
     lambda: UpperHalfPoint(1j * np.eye(2)), NotUpperHalf),
    ("disk_to_halfspace", _nan_at(siegel, "smallest_singular_value"),
     lambda: disk_to_halfspace(ZERO_POINT), BoundaryContact),
    ("PairedBlocks symplectic", _nan_at(siegel, "hs_norm"),
     lambda: PairedBlocks(np.eye(2), np.zeros((2, 2)), 1), NotSymplectic),
    ("PairedBlocks orthogonal", _nan_at(siegel, "hs_norm"),
     lambda: PairedBlocks(np.eye(2), np.zeros((2, 2)), -1), NotOrthogonal),
    ("block_decompose preservation", _nan_at(siegel, "hs_norm"),
     lambda: block_decompose(np.eye(4), SPLIT2), NotSymplectic),
    # preservation residual, ||F|| and ||M|| come before the pairing residuals
    ("block_decompose pairing", _nan_at(siegel, "hs_norm", 4),
     lambda: block_decompose(np.eye(4), SPLIT2), ShapeViolation),
    ("find_chart pairing", (orthograss, "chart_solve", _nan_kernel),
     lambda: orthograss.find_chart(Frame(SPLIT2.lplus), SPLIT2), NoPairing),
    ("check_increasing", None, lambda: _nan_boundary().check_increasing(), NotIncreasing),
    ("composition_operator", None, lambda: composition_operator(_nan_boundary(), 4),
     NotIncreasing),
]


@pytest.mark.parametrize("patch, call, error", [c[1:] for c in NAN_GATES],
                         ids=[c[0] for c in NAN_GATES])
def test_a_nan_residual_fails_its_gate_by_name(monkeypatch, patch, call, error):
    if patch is not None:
        monkeypatch.setattr(*patch)
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "patch, verdict",
    [
        (_nan_at(triples, "hs_norm", 4), lambda: verify_triple(T2.g, T2.J, T2.omega).compatible),
        (_nan_at(triples, "min_eig_hermitian"),
         lambda: verify_triple(T2.g, T2.J, T2.omega).positive),
        (_nan_at(siegel, "min_eig_hermitian"),
         lambda: siegel.siegel_membership(np.zeros((2, 2))).member),
    ],
    ids=["verify_triple identities", "verify_triple positivity", "siegel_membership"],
)
def test_a_nan_residual_fails_the_report(monkeypatch, patch, verdict):
    monkeypatch.setattr(*patch)
    assert verdict() is False


@pytest.mark.parametrize(
    "patch, verb, obj",
    [
        ((cli, "principal_angle_distance", lambda a, b: NAN), "chart-find",
         {"frame": generate_input({"make": "orthogonal_subspace", "n": 2},
                                  np.random.default_rng(0))["frame"]}),
        ((fock, "basis_residuals", lambda rep: (NAN, 0.0)), "fock-car",
         {"model": "fermion", "cutoff": 1}),
        ((circle.TorusPeriodReport, "residuals", property(lambda self: {"a_period": NAN})),
         "torus-period", {"tau": [0.0, 1.0]}),
    ],
    ids=["chart-find", "fock-car", "torus-period"],
)
def test_a_nan_residual_fails_the_verdict(monkeypatch, patch, verb, obj):
    monkeypatch.setattr(*patch)
    report, code = cli.run_verb(verb, obj, cli.Options())
    assert report["pass"] is False and code == 2


class TestVerbsReadTheirGates:
    def test_triple_complete_reports_the_triple_report(self):
        obj = generate_input({"make": "partial_triple", "n": 4, "omit": "J"},
                             np.random.default_rng(5))
        report, code = cli.run_verb("triple-complete", obj, cli.Options())
        assert code == 0
        t = complete_from_g_omega(*(cli.se.form_from_json(obj[k]) for k in ("g", "omega")))
        assert report["residuals"] == {**t.report.residuals,
                                       "g_min_eigenvalue": t.report.g_min_eigenvalue}
        assert t.report.g_min_eigenvalue == linalg.min_eig_hermitian(t.G)

    def test_signed_matrix_keeps_its_symmetry_residual(self):
        Z = np.array([[0.1, 0.2], [0.2 + 1e-12, 0.0]])
        p = SiegelPoint(Z)
        assert p.symmetry_residual == linalg.symmetry_deviation(p.Z)
        q = orthograss.OrthoGraphOperator(np.array([[0.0, 0.5], [-0.5, 1e-12]]))
        assert q.symmetry_residual == linalg.symmetry_deviation(q.Z, -1.0)

    def test_eigensplit_keeps_its_residuals(self, rng):
        t = pullback_triple(random_invertible(8, rng), standard_triple(4))
        space = complexify(t)
        split = eigensplit(space)
        L = split.lplus
        assert split.eigenvector_residual == hs_norm(t.Jmat @ L - 1j * L)
        assert split.gram_residual == hs_norm(space.gram(L) - np.eye(4))

    def test_every_handler_takes_options_and_gives_its_help(self):
        verbs = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
        for verb, handler in cli._HANDLERS.items():
            assert handler.__doc__ and verbs.choices[verb].description == handler.__doc__

    @pytest.mark.parametrize(
        "field, value, verdict",
        [
            ("symmetry_residual", lambda budget, margin: 0.5 * budget, True),
            ("symmetry_residual", lambda budget, margin: 2.0 * budget, False),
            ("symmetry_residual", lambda budget, margin: NAN, False),
            ("opnorm", lambda budget, margin: 1.0 - 2.0 * margin, True),
            ("opnorm", lambda budget, margin: 1.0 - 0.5 * margin, False),
        ],
        ids=["residual-within", "residual-beyond", "residual-nan", "norm-clears", "norm-short"],
    )
    def test_grunsky_verdict_follows_its_residuals(self, monkeypatch, field, value, verdict):
        # the point's stored residual is moved to either side of its gate
        real = circle.grunsky

        def moved(*args):
            p = real(*args)
            budget = circle.GRUNSKY_SYMMETRY_TOL * max(1.0, hs_norm(p.Z))
            object.__setattr__(p, field, value(budget, siegel.CONTRACTION_MARGIN))
            return p

        monkeypatch.setattr(circle, "grunsky", moved)
        obj = {"diffeo": {"kind": "fourier_flow", "coeffs": [[2, 0.15]]}, "cutoff": 16}
        report, code = cli.run_verb("grunsky", obj, cli.Options())
        assert report["pass"] is verdict and code == (0 if verdict else 2)
