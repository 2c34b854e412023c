"""Each output check passes the program's output and rejects a perturbed one.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import copy
import json

import numpy as np
import pytest

import checks
from polargrass import cli
from polargrass.circle import fermion_polarization
from polargrass.fock import build_fock
from polargrass.polarization import complexify, eigensplit
from polargrass.sampling import generate_input
from polargrass.triples import standard_triple


def emitted(verb, inp):
    """The report as the CLI path emits it, parsed back."""
    report, _ = cli.run_verb(verb, json.loads(json.dumps(inp)), cli.Options())
    return json.loads(cli.se.dumps_canonical(report))


def gen(make, n, seed=3, **extra):
    return generate_input({"make": make, "n": n, **extra}, np.random.default_rng(seed))


def bump(wire, i, j, eps):
    """Add ``eps`` to entry (i, j) of a wire-format matrix, in place."""
    wire["data"][i * wire["cols"] + j][0] += eps


def passes_then_fails(check, inp, rep, perturb):
    assert check(inp, rep) == []
    bad = copy.deepcopy(rep)
    perturb(bad)
    assert check(inp, bad) != []


def test_triple_verify():
    inp = gen("pullback_triple", 3)
    rep = emitted("triple-verify", inp)

    def flip(r):
        r["pass"] = False

    def shift(r):
        r["residuals"]["g_min_eigenvalue"] *= 1.001

    passes_then_fails(checks.triple_verify, inp, rep, flip)
    passes_then_fails(checks.triple_verify, inp, rep, shift)


@pytest.mark.parametrize("omit", ["g", "J", "omega"])
def test_triple_complete(omit):
    inp = gen("partial_triple", 3, omit=omit)
    rep = emitted("triple-complete", inp)
    passes_then_fails(checks.triple_complete, inp, rep,
                      lambda r: bump(r["outputs"][omit], 0, 1, 1e-6))


def test_polarize():
    inp = gen("pullback_triple", 3)
    rep = emitted("polarize", inp)
    passes_then_fails(checks.polarize, inp, rep, lambda r: bump(r["outputs"]["wplus"], 1, 0, 1e-6))


@pytest.mark.parametrize("make", ["siegel_point", "halfspace_point"])
def test_siegel_member(make):
    inp = gen(make, 4)
    rep = emitted("siegel-member", inp)

    def flip(r):
        r["pass"] = False

    def shift(r):
        r["residuals"]["min_eigenvalue"] += 1e-6

    passes_then_fails(checks.siegel_member, inp, rep, flip)
    passes_then_fails(checks.siegel_member, inp, rep, shift)


def test_siegel_act():
    inp = gen("symplectic_action", 4)
    rep = emitted("siegel-act", inp)

    def sym_bump(r):  # stays symmetric, so only the action identities see it
        bump(r["outputs"]["Z"], 0, 1, 1e-7)
        bump(r["outputs"]["Z"], 1, 0, 1e-7)

    passes_then_fails(checks.siegel_act, inp, rep, sym_bump)


@pytest.mark.parametrize("spec", [{"kind": "rotation", "delta": 0.7},
                                  {"kind": "mobius", "a": [0.05, -0.08]}])
def test_grunsky_polarization_preserving(spec):
    inp = {"diffeo": spec, "cutoff": 16}
    rep = emitted("grunsky", inp)
    passes_then_fails(checks.grunsky, inp, rep, lambda r: bump(r["outputs"]["Z"], 2, 2, 1e-5))


@pytest.mark.parametrize("coeffs", [[[2, 0.3]], [[3, 0.1], [1, 0.2]]])
def test_grunsky_flow(coeffs):
    inp = {"diffeo": {"kind": "fourier_flow", "coeffs": coeffs}, "cutoff": 16}
    rep = emitted("grunsky", inp)

    def sym_bump(r):  # symmetric and tiny: only the FFT reference sees it
        bump(r["outputs"]["Z"], 0, 1, 1e-7)
        bump(r["outputs"]["Z"], 1, 0, 1e-7)

    def asym_bump(r):
        bump(r["outputs"]["Z"], 15, 14, 1e-3)

    def corner_bump(r):  # the truncation corner is left free
        bump(r["outputs"]["Z"], 15, 15, 1e-9)

    passes_then_fails(checks.grunsky, inp, rep, sym_bump)
    passes_then_fails(checks.grunsky, inp, rep, asym_bump)
    bad = copy.deepcopy(rep)
    corner_bump(bad)
    assert checks.grunsky(inp, bad) == []


def test_chart_find():
    n = 5
    L = eigensplit(complexify(standard_triple(n))).lplus
    inp = gen("orthogonal_subspace", n)
    rep = emitted("chart-find", inp)

    def anti_bump(r):
        bump(r["outputs"]["Z"], 0, 1, 1e-6)
        bump(r["outputs"]["Z"], 1, 0, -1e-6)

    def other_chart(r):
        r["outputs"]["chart"] = [1, 2]

    assert checks.check_split(L) == []
    assert checks.check_split(L * np.exp(0.1j) + 1e-6) != []
    for perturb in (anti_bump, other_chart):
        passes_then_fails(lambda i, r: checks.chart_find(i, r, L), inp, rep, perturb)


def test_chart_transition():
    A = np.random.default_rng(5).standard_normal((4, 4))
    Z = (A - A.T) / 4
    inp = {"Z": {"rows": 4, "cols": 4, "data": [[float(x), 0.0] for x in Z.ravel()]},
           "source": [], "target": [1, 2]}
    rep = emitted("chart-transition", inp)

    def anti_bump(r):
        bump(r["outputs"]["Z"], 2, 3, 1e-6)
        bump(r["outputs"]["Z"], 3, 2, -1e-6)

    passes_then_fails(checks.chart_transition, inp, rep, anti_bump)


def test_torus_period():
    inp = {"tau": [0.3, 1.2]}
    rep = emitted("torus-period", inp)

    def shift(r):
        r["outputs"]["period_b"][1] += 1e-9

    passes_then_fails(checks.torus_period, inp, rep, shift)


def test_fock_car():
    inp = {"model": "fermion", "cutoff": 2}
    rep = emitted("fock-car", inp)

    def rank(r):
        r["outputs"]["cyclicity_rank"] -= 1

    passes_then_fails(checks.fock_car, inp, rep, rank)


def test_fock_creation_matches_jordan_wigner():
    creation = [c.toarray() for c in build_fock(fermion_polarization(3)).creation]
    assert checks.fock_creation(creation) == []
    creation[2][np.nonzero(creation[2])[0][1], np.nonzero(creation[2])[1][1]] *= -1
    assert checks.fock_creation(creation) != []


def test_suite_and_rejection():
    rep = {"pass": True, "counts": dict(checks.SUITE_COUNTS)}
    assert checks.suite({}, rep) == []
    rep["counts"]["passed"] -= 1
    assert checks.suite({}, rep) != []
    rejected = emitted("torus-period", {"tau": [0.5, -0.5]})
    assert checks.rejection("NotUpperHalf", rejected) == []
    assert checks.rejection("NotPositive", rejected) != []
    assert checks.rejection("NotUpperHalf", emitted("torus-period", {"tau": [0.5, 0.5]})) != []
