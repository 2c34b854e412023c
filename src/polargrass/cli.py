"""Batch command-line surface.

Every verb reads one JSON input object (``--input``), runs one module
operation, and emits one JSON report with the shape

    {"schema": "report.v1", "verb": ..., "inputs": ..., "residuals": ...,
     "pass": ..., ...}

to ``--output`` (or stdout).  Exit codes: 0 when the check passes, 2 on
a failed check or a domain error (the error name lands in the report),
1 on I/O or parse problems, and 2 on a usage error.  ``report-suite``
runs a list of named scenarios from a config file and aggregates them,
in declared order, into a ``suite.v1`` object; with a fixed seed the
aggregate is byte-identical across runs.

A cold ``polargrass VERB`` pays only for what the verb runs: each handler
imports the modules it needs in its own body, and :func:`run` ends the
process once the report is flushed, without interpreter teardown.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import serialize as se
from .errors import DomainError, FormatError
from .linalg import (
    DEFAULT_TOL,
    Frame,
    Tolerances,
    clears,
    hs_norm,
    principal_angle_distance,
    within,
)

REPORT_SCHEMA = "report.v1"
SUITE_SCHEMA = "suite.v1"

#: Fixed pass thresholds for verbs whose result is a checked reconstruction.
CHART_RECONSTRUCTION_TOL = 1e-7
TORUS_PERIOD_TOL = 1e-9
CAR_TOL = 1e-12
#: Loosest antisymmetry budget ``chart-transition`` accepts as ``atol``: the
#: loosest the package gives an OrthoGraphOperator (holomorphy_check).
MAX_CHART_ATOL = 1e-6


@dataclass(frozen=True)
class Options:
    """Per-invocation knobs shared by all verbs."""

    tol: Tolerances = DEFAULT_TOL
    cutoff: int | None = None
    quadrature: int | None = None


def _make_options(tol_eq, tol_spd, cutoff=None, quadrature=None) -> Options:
    tol = DEFAULT_TOL
    if tol_eq is not None:
        tol = dataclasses.replace(tol, eq_tol=float(tol_eq))
    if tol_spd is not None:
        tol = dataclasses.replace(tol, spd_tol=float(tol_spd))
    return Options(tol=tol, cutoff=cutoff, quadrature=quadrature)


def _int_option(obj: dict, opts: Options, key: str, default: int, least: int) -> int:
    """``cutoff``/``quadrature``: the option if set, else the input's key,
    else ``default``; an integer (not a boolean) of at least ``least``."""
    value = getattr(opts, key)
    if value is None:
        value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise FormatError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# verb handlers (parsed object -> report core; errors propagate)


def _triple_members(obj, present):
    se._check_keys(obj, present)
    out = {}
    if "g" in present:
        out["g"] = se.form_from_json(obj["g"])
        if out["g"].kind != "symmetric":
            raise FormatError('the "g" member must have kind "symmetric"')
    if "J" in present:
        out["J"] = se.structure_from_json(obj["J"])
    if "omega" in present:
        out["omega"] = se.form_from_json(obj["omega"])
        if out["omega"].kind != "antisymmetric":
            raise FormatError('the "omega" member must have kind "antisymmetric"')
    return out


def _verb_triple_verify(obj, opts: Options) -> dict:
    """Check the three compatibility identities of (g, J, omega)."""
    from .triples import verify_triple

    m = _triple_members(obj, ("g", "J", "omega"))
    report = verify_triple(m["g"], m["J"], m["omega"], opts.tol)
    return {
        "inputs": {"dim": m["g"].dim},
        "residuals": {**report.residuals, "g_min_eigenvalue": report.g_min_eigenvalue},
        "pass": report.compatible and report.positive,
    }


def _verb_triple_complete(obj, opts: Options) -> dict:
    """Complete two of g/J/omega to a full compatible triple."""
    from .triples import complete_from_g_J, complete_from_g_omega, complete_from_J_omega

    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object")
    present = tuple(k for k in ("g", "J", "omega") if k in obj)
    if len(present) != 2:
        raise FormatError(
            f"triple-complete needs exactly two of g/J/omega, got {list(obj)}"
        )
    m = _triple_members(obj, present)
    if present == ("g", "J"):
        t = complete_from_g_J(m["g"], m["J"], opts.tol)
    elif present == ("g", "omega"):
        t = complete_from_g_omega(m["g"], m["omega"], opts.tol)
    else:
        t = complete_from_J_omega(m["J"], m["omega"], opts.tol)
    return {
        "inputs": {"dim": t.dim, "given": list(present)},
        "residuals": {**t.report.residuals, "g_min_eigenvalue": t.report.g_min_eigenvalue},
        "pass": True,
        "outputs": se.triple_to_json(t),
    }


def _verb_polarize(obj, opts: Options) -> dict:
    """Split the complexification of a triple along the J eigenspaces."""
    from .polarization import complexify, eigensplit

    t = se.triple_from_json(obj)
    space = complexify(t)
    split = eigensplit(space, tol=opts.tol)
    L = split.lplus
    return {
        "inputs": {"dim": t.dim},
        "residuals": {
            "eigenvector": split.eigenvector_residual,
            "gram": split.gram_residual,
            "omega_isotropy": hs_norm(L.T @ space.Omega @ L),
        },
        "pass": True,
        "outputs": {"wplus": {**se._matrix(L), "ambient_dim": t.dim}},
    }


def _verb_siegel_member(obj, opts: Options) -> dict:
    """Membership report for a disk or half-space point."""
    from .siegel import halfspace_membership, siegel_membership

    mat = se.matrix_from_json(obj, extra=("model",))
    model = obj.get("model")
    if model == "disk":
        rep = siegel_membership(mat, opts.tol)
    elif model == "halfspace":
        rep = halfspace_membership(mat, opts.tol)
    else:
        raise FormatError(f'model must be "disk" or "halfspace", got {model!r}')
    return {
        "inputs": {"model": model, "n": mat.shape[0]},
        "residuals": {
            "symmetry_residual": rep.symmetry_residual,
            "min_eigenvalue": rep.min_eigenvalue,
        },
        "pass": bool(rep.member),
    }


def _verb_siegel_act(obj, opts: Options) -> dict:
    """Move a disk point by a block symplectic element."""
    from .siegel import BlockSymplectic, UpperHalfPoint, mobius_act

    se._check_keys(obj, ("a", "b", "Z"))
    a = se.matrix_from_json(obj["a"])
    b = se.matrix_from_json(obj["b"])
    p = se.disk_point_from_json(obj["Z"])
    if isinstance(p, UpperHalfPoint):
        raise FormatError("siegel-act moves disk-model points; convert first")
    u = BlockSymplectic(a, b)
    q = mobius_act(u, p)
    return {
        "inputs": {"n": u.n},
        "residuals": {
            "result_symmetry": q.symmetry_residual,
            "result_opnorm": q.opnorm,
        },
        "pass": True,
        "outputs": {"Z": se.disk_point_to_json(q)},
    }


def _verb_grunsky(obj, opts: Options) -> dict:
    """Siegel point of a circle diffeomorphism at a Fourier cutoff."""
    from .circle import GRUNSKY_SYMMETRY_TOL, diffeo_from_spec, grunsky
    from .siegel import CONTRACTION_MARGIN

    se._check_keys(obj, ("diffeo",), ("cutoff", "quadrature"))
    N = _int_option(obj, opts, "cutoff", 32, 1)
    K = _int_option(obj, opts, "quadrature", 16 * N, 1)
    phi = diffeo_from_spec(obj["diffeo"])
    p = grunsky(phi, N, K)
    # the gates the point passed, read again from the numbers it kept
    ok = within(p.symmetry_residual, GRUNSKY_SYMMETRY_TOL, hs_norm(p.Z)) and clears(
        1.0 - p.opnorm, CONTRACTION_MARGIN, 0.0
    )
    return {
        "inputs": {"kind": obj["diffeo"].get("kind"), "cutoff": N, "quadrature": K},
        "residuals": {
            "z_opnorm": p.opnorm,
            "symmetry_residual": p.symmetry_residual,
        },
        "pass": ok,
        "outputs": {"Z": {**se._matrix(p.Z), "model": "disk"}},
    }


def _verb_chart_find(obj, opts: Options) -> dict:
    """Locate a chart of the orthogonal Grassmannian containing a frame."""
    from .orthograss import find_chart
    from .polarization import standard_split
    from .siegel import graph_columns

    se._check_keys(obj, ("frame",))
    w = se.frame_from_json(obj["frame"])
    if w.ambient_dim != 2 * w.rank:
        raise FormatError(
            f"polarization frame needs ambient 2n x n, got {w.ambient_dim} x {w.rank}"
        )
    split = standard_split(w.rank)
    found = find_chart(w, split)
    cols = graph_columns(split, found.Z.Z, found.S.indices)
    recon = principal_angle_distance(Frame.from_columns(cols), w)
    return {
        "inputs": {"n": w.rank},
        "residuals": {
            "reconstruction": recon,
            "z_antisymmetry": found.Z.symmetry_residual,
        },
        "pass": within(recon, CHART_RECONSTRUCTION_TOL, 0.0),
        "outputs": {
            "chart": se.chart_index_to_json(found.S),
            "Z": se._matrix(found.Z.Z),
            "kernel_dims": list(found.kernel_dims),
        },
    }


def _verb_chart_transition(obj, opts: Options) -> dict:
    """Change chart coordinates of a graph operator."""
    from .orthograss import OrthoGraphOperator, transition

    se._check_keys(obj, ("Z", "source", "target"), ("atol",))
    atol = obj.get("atol", 1e-10)
    if not isinstance(atol, (int, float)) or isinstance(atol, bool) or not 0 < atol <= MAX_CHART_ATOL:
        raise FormatError(f"atol must be a positive number at most {MAX_CHART_ATOL:g}, got {atol!r}")
    Z1 = OrthoGraphOperator(se.matrix_from_json(obj["Z"]), atol=float(atol))
    S1 = se.chart_index_from_json(obj["source"])
    S2 = se.chart_index_from_json(obj["target"])
    Z2 = transition(S1, S2, Z1)
    return {
        "inputs": {
            "n": Z1.n,
            "source": se.chart_index_to_json(S1),
            "target": se.chart_index_to_json(S2),
        },
        "residuals": {"z_antisymmetry": Z2.symmetry_residual},
        "pass": True,
        "outputs": {"Z": se._matrix(Z2.Z)},
    }


def _verb_fock_car(obj, opts: Options) -> dict:
    """Build a Fock representation and verify the anticommutation relations."""
    from .circle import fermion_polarization
    from .fock import basis_residuals, build_fock, check_modes, vacuum_cyclicity_rank
    from .polarization import OrthogonalPolarization, complexify

    if isinstance(obj, dict) and "model" in obj:
        se._check_keys(obj, ("model",), ("cutoff",))
        if obj["model"] != "fermion":
            raise FormatError(f'only the "fermion" model is built in, got {obj["model"]!r}')
        N = _int_option(obj, opts, "cutoff", 3, 0)
        check_modes(N + 1)
        pol = fermion_polarization(N)
        inputs = {"model": "fermion", "cutoff": N}
    else:
        se._check_keys(obj, ("triple", "frame"))
        t = se.triple_from_json(obj["triple"])
        w = se.frame_from_json(obj["frame"])
        pol = OrthogonalPolarization(complexify(t), w)
        inputs = {"dim": t.dim}
    rep = build_fock(pol)
    car, adjoint = basis_residuals(rep)
    vac = max(
        (float(np.linalg.norm(rep.annihilation[k] @ rep.vacuum)) for k in range(rep.n)),
        default=0.0,
    )
    rank = vacuum_cyclicity_rank(rep)
    ok = all(within(r, CAR_TOL, 0.0) for r in (car, adjoint, vac)) and rank == rep.dim
    return {
        "inputs": inputs,
        "residuals": {
            "car_max": car,
            "adjoint_max": adjoint,
            "vacuum_annihilation": vac,
        },
        "pass": ok,
        "outputs": {"modes": rep.n, "dim": rep.dim, "cyclicity_rank": rank},
    }


def _verb_torus_period(obj, opts: Options) -> dict:
    """Period point of the lattice (1, tau) with residuals."""
    from .circle import torus_period

    se._check_keys(obj, ("tau",))
    tau = se._entry(obj["tau"])
    rep = torus_period(tau)
    residuals = dict(rep.residuals)
    return {
        "inputs": {"tau": [tau.real, tau.imag]},
        "residuals": residuals,
        "pass": all(within(r, TORUS_PERIOD_TOL, 0.0) for r in residuals.values()),
        "outputs": {
            "period_a": [rep.period_a.real, rep.period_a.imag],
            "period_b": [rep.period_b.real, rep.period_b.imag],
        },
    }


_HANDLERS = {
    "triple-verify": _verb_triple_verify,
    "triple-complete": _verb_triple_complete,
    "polarize": _verb_polarize,
    "siegel-member": _verb_siegel_member,
    "siegel-act": _verb_siegel_act,
    "grunsky": _verb_grunsky,
    "chart-find": _verb_chart_find,
    "chart-transition": _verb_chart_transition,
    "fock-car": _verb_fock_car,
    "torus-period": _verb_torus_period,
}


def run_verb(verb: str, obj, opts: Options) -> tuple[dict, int]:
    """Run one verb on a parsed input object.

    Returns the finished report plus the exit code; all failures are
    folded into the report rather than raised.
    """
    if verb not in _HANDLERS:
        raise FormatError(f"unknown verb {verb!r}")
    try:
        report = _HANDLERS[verb](obj, opts)
    except DomainError as exc:
        return _error_report(verb, exc), 2
    except Exception as exc:  # FormatError, or a malformed structure that slipped past checks
        return _error_report(verb, exc), 1
    report["schema"], report["verb"] = REPORT_SCHEMA, verb
    return report, 0 if report["pass"] else 2


def _error_report(verb: str, exc: Exception) -> dict:
    """Failure report; ``error`` is the class name (a ``PolargrassError``'s ``name``)."""
    return {
        "schema": REPORT_SCHEMA,
        "verb": verb,
        "inputs": {},
        "residuals": {},
        "pass": False,
        "error": type(exc).__name__,
        "detail": str(exc),
    }


# ---------------------------------------------------------------------------
# report-suite

_SCENARIO_KEYS = ("name", "verb")
_SCENARIO_OPTIONAL = (
    "input",
    "generate",
    "expect_error",
    "seed",
    "cutoff",
    "quadrature",
    "tol_eq",
    "tol_spd",
)


def run_suite(config: dict, seed_override: int | None = None) -> tuple[dict, int]:
    """Run every scenario of a suite config and aggregate in declared order.

    Scenario seeds default to ``suite_seed + position`` so a single
    64-bit seed pins the whole run; per-scenario ``seed`` keys override.
    A scenario with ``expect_error`` counts as passed exactly when the
    named error occurs.
    """
    from .sampling import generate_input

    se._check_keys(config, ("scenarios",), ("seed", "schema"))
    scenarios = config["scenarios"]
    if not isinstance(scenarios, list):
        raise FormatError("scenarios must be a list")
    suite_seed = seed_override if seed_override is not None else config.get("seed", 0)
    if not isinstance(suite_seed, int) or isinstance(suite_seed, bool):
        raise FormatError(f"seed must be an integer, got {suite_seed!r}")

    entries = []
    counts = {"total": 0, "passed": 0, "failed": 0, "expected_failures": 0}
    for pos, scen in enumerate(scenarios):
        se._check_keys(scen, _SCENARIO_KEYS, _SCENARIO_OPTIONAL)
        name, verb = scen["name"], scen["verb"]
        if not isinstance(name, str) or not isinstance(verb, str):
            raise FormatError("scenario name and verb must be strings")
        if ("input" in scen) == ("generate" in scen):
            raise FormatError(f"scenario {name!r} needs exactly one of input/generate")
        scen_seed = scen.get("seed", suite_seed + pos)
        if not isinstance(scen_seed, int) or isinstance(scen_seed, bool):
            raise FormatError(f"scenario {name!r} seed must be an integer")
        opts = _make_options(
            scen.get("tol_eq"),
            scen.get("tol_spd"),
            cutoff=scen.get("cutoff"),
            quadrature=scen.get("quadrature"),
        )
        if "generate" in scen:
            obj = generate_input(scen["generate"], np.random.default_rng(scen_seed))
        else:
            obj = scen["input"]
        report, code = run_verb(verb, obj, opts)
        expected = scen.get("expect_error")
        if expected is not None and not isinstance(expected, str):
            raise FormatError(f"scenario {name!r} expect_error must be a string")
        if expected is None:
            status = "passed" if code == 0 else "failed"
        elif report.get("error") == expected:
            status = "failed-as-expected"
        elif code == 0:
            status = "unexpected-pass"
        else:
            status = "failed"
        effective = status in ("passed", "failed-as-expected")
        counts["total"] += 1
        if status == "passed":
            counts["passed"] += 1
        elif status == "failed-as-expected":
            counts["expected_failures"] += 1
        else:
            counts["failed"] += 1
        entry = {
            "name": name,
            "verb": verb,
            "status": status,
            "pass": effective,
            "seed": scen_seed,
            "report": report,
        }
        if expected is not None:
            entry["expect_error"] = expected
        entries.append(entry)

    aggregate = {
        "schema": SUITE_SCHEMA,
        "seed": suite_seed,
        "pass": counts["failed"] == 0,
        "counts": counts,
        "scenarios": entries,
    }
    return aggregate, 0 if aggregate["pass"] else 2


# ---------------------------------------------------------------------------
# command line


def _write_out(payload: dict, output_path: str | None, summary: str) -> None:
    text = se.dumps_canonical(payload)
    if output_path:
        with open(output_path, "w", encoding="ascii") as fh:
            fh.write(text)
        sys.stdout.write(summary + "\n")
    else:
        sys.stdout.write(text)


def _verb_command(verb: str, input_path: str, output_path: str | None, opts: Options) -> int:
    try:
        obj = se.load_json(input_path)
    except FormatError as exc:
        _write_out(_error_report(verb, exc), output_path, f"{verb}: error")
        return 1
    report, code = run_verb(verb, obj, opts)
    report["inputs"]["path"] = str(input_path)
    verdict = "pass" if code == 0 else report.get("error", "fail")
    _write_out(report, output_path, f"{verb}: {verdict}")
    return code


def _report_suite(input_path: str, output_path: str | None, seed: int | None) -> int:
    """Run a scenario suite config and aggregate the reports."""
    try:
        config = se.load_json(input_path)
        aggregate, code = run_suite(config, seed_override=seed)
    except FormatError as exc:
        _write_out(
            {
                "schema": SUITE_SCHEMA,
                "seed": seed if seed is not None else 0,
                "pass": False,
                "counts": {"total": 0, "passed": 0, "failed": 0, "expected_failures": 0},
                "scenarios": [],
                "error": exc.name,
                "detail": str(exc),
            },
            output_path,
            "report-suite: error",
        )
        return 1
    c = aggregate["counts"]
    summary = (
        f"report-suite: {'pass' if aggregate['pass'] else 'FAIL'} "
        f"({c['passed']} passed, {c['expected_failures']} expected failures, "
        f"{c['failed']} failed)"
    )
    _write_out(aggregate, output_path, summary)
    return code


def _parser(prog_name: str | None = None) -> argparse.ArgumentParser:
    """The verbs and their options; ``POLARGRASS_SEED`` is read here, at parse time."""
    parser = argparse.ArgumentParser(
        prog=prog_name or "polargrass", description=main.__doc__, allow_abbrev=False
    )
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    for verb, handler in (*_HANDLERS.items(), ("report-suite", _report_suite)):
        sub = verbs.add_parser(
            verb, help=handler.__doc__, description=handler.__doc__, allow_abbrev=False
        )
        sub.add_argument("--input", dest="input_path", metavar="PATH", required=True,
                         help="input JSON object")
        sub.add_argument("--output", dest="output_path", metavar="PATH",
                         help="report destination (default: stdout)")
        if verb == "report-suite":
            sub.add_argument(
                "--seed",
                type=int,
                default=os.environ.get("POLARGRASS_SEED"),
                help="overrides the config seed (env: POLARGRASS_SEED)",
            )
            continue
        sub.add_argument("--tol-eq", type=float)
        sub.add_argument("--tol-spd", type=float)
        if verb in ("grunsky", "fock-car"):
            sub.add_argument("--cutoff", type=int)
        if verb == "grunsky":
            sub.add_argument("--quadrature", type=int)
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Numerics for compatible triples, polarizations and Siegel disks."""
    ns = _parser(prog_name).parse_args(args)
    if ns.verb == "report-suite":
        code = _report_suite(ns.input_path, ns.output_path, ns.seed)
    else:
        opts = _make_options(
            ns.tol_eq,
            ns.tol_spd,
            cutoff=getattr(ns, "cutoff", None),
            quadrature=getattr(ns, "quadrature", None),
        )
        code = _verb_command(ns.verb, ns.input_path, ns.output_path, opts)
    raise SystemExit(code)


def run() -> NoReturn:
    """The ``polargrass`` command: run :func:`main`, flush stdout and
    stderr, and end the process with ``os._exit``, skipping interpreter
    teardown.  A write or flush that fails (stdout a closed pipe) exits 1
    without a traceback."""
    try:
        main()
    except SystemExit as exc:
        code = exc.code
    except BrokenPipeError:
        code = 1
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
