"""Command-line surface: verbs, exit codes, reports, suite aggregation."""

import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from polargrass import circle, cli, polarization
from polargrass.circle import CircleDiffeo
from polargrass.cli import main
from polargrass.errors import FormatError
from polargrass.fock import MAX_MODES
from polargrass.linalg import Frame, op_norm
from polargrass.polarization import complexify, eigensplit, standard_split
from polargrass.sampling import generate_input, random_orthogonal
from polargrass.serialize import (
    disk_point_to_json,
    dumps_canonical,
    form_to_json,
    frame_to_json,
    matrix_from_json,
    matrix_to_json,
    save_json,
    triple_from_json,
    triple_to_json,
)
from polargrass.siegel import SiegelPoint
from polargrass.triples import BilinearForm, standard_triple, verify_triple

from conftest import CliRunner


def schema(name):
    text = resources.files("polargrass").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


SHIPPED_SUITE = str(resources.files("polargrass").joinpath("configs/acceptance_suite.json"))


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, tmp_path, verb, payload, *flags):
    path = tmp_path / "input.json"
    save_json(payload, path)
    return runner.invoke(main, [verb, "--input", str(path), *flags])


def report_of(result):
    rep = json.loads(result.output)
    jsonschema.validate(rep, schema("report.v1.json"))
    return rep


class TestTripleVerbs:
    def test_verify_passes(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "triple-verify", triple_to_json(standard_triple(2)))
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["pass"] is True
        assert rep["verb"] == "triple-verify"
        assert rep["inputs"]["path"].endswith("input.json")
        assert rep["residuals"]["g_min_eigenvalue"] == pytest.approx(1.0)

    def test_verify_detects_incompatibility(self, runner, tmp_path):
        obj = triple_to_json(standard_triple(1))
        # omega = 0.9 * standard: still antisymmetric, no longer g(J., .)
        obj["omega"]["data"] = [[0.0, 0.0], [0.9, 0.0], [-0.9, 0.0], [0.0, 0.0]]
        result = invoke(runner, tmp_path, "triple-verify", obj)
        assert result.exit_code == 2
        rep = report_of(result)
        assert rep["pass"] is False and "error" not in rep

    def test_complete_emits_verified_triple(self, runner, tmp_path):
        full = triple_to_json(standard_triple(2))
        result = invoke(runner, tmp_path, "triple-complete", {"g": full["g"], "J": full["J"]})
        assert result.exit_code == 0
        rep = report_of(result)
        back = triple_from_json(rep["outputs"])
        assert verify_triple(back.g, back.J, back.omega).compatible

    def test_complete_rejects_wrong_orientation(self, runner, tmp_path):
        t = standard_triple(2)
        full = triple_to_json(t)
        negated = matrix_to_json(-t.Jmat)
        negated["kind"] = "complex_structure"
        result = invoke(
            runner, tmp_path, "triple-complete", {"J": negated, "omega": full["omega"]}
        )
        assert result.exit_code == 2
        assert report_of(result)["error"] == "NotPositive"

    @pytest.mark.parametrize("seed", range(3))
    def test_pullback_triples_pass_every_triple_verb_at_n32(self, seed):
        # identities gated relative to their operands; absolute 1e-10 failed all of these
        cases = [("triple-verify", {"make": "pullback_triple", "n": 32}),
                 ("polarize", {"make": "pullback_triple", "n": 32})]
        cases += [("triple-complete", {"make": "partial_triple", "n": 32, "omit": omit})
                  for omit in ("g", "J", "omega")]
        for verb, spec in cases:
            obj = json.loads(json.dumps(generate_input(spec, np.random.default_rng(seed))))
            report, code = cli.run_verb(verb, obj, cli.Options())
            assert code == 0 and report["pass"] is True, (verb, spec, report)

    def test_complete_g_omega_follows_tol_eq(self, runner, tmp_path):
        # one J^2 + I gate, under --tol-eq: 4.0e-9 passes 1e-8, fails 1e-10
        t = standard_triple(2)
        omega = BilinearForm("antisymmetric", (1.0 + 1e-9) * t.Omega)
        payload = {"g": form_to_json(t.g), "omega": form_to_json(omega)}
        result = invoke(runner, tmp_path, "triple-complete", payload, "--tol-eq", "1e-8")
        assert result.exit_code == 0
        assert report_of(result)["pass"] is True
        result = invoke(runner, tmp_path, "triple-complete", payload)
        assert result.exit_code == 2
        assert report_of(result)["error"] == "NotAComplexStructure"

    def test_complete_needs_exactly_two_members(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "triple-complete", triple_to_json(standard_triple(1)))
        assert result.exit_code == 1
        assert report_of(result)["error"] == "FormatError"

    @pytest.mark.parametrize("member, other", [("g", "omega"), ("omega", "g")])
    def test_a_member_of_the_wrong_kind_is_refused(self, runner, tmp_path, member, other):
        # a well-formed form of the other kind: g antisymmetric, omega symmetric
        obj = triple_to_json(standard_triple(2))
        obj[member] = obj[other]
        result = invoke(runner, tmp_path, "triple-verify", obj)
        assert result.exit_code == 1
        rep = report_of(result)
        assert rep["error"] == "FormatError"
        assert f'"{member}" member must have kind' in rep["detail"]


class TestInputHandling:
    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(
            main, ["triple-verify", "--input", str(tmp_path / "absent.json")]
        )
        assert result.exit_code == 1
        assert report_of(result)["error"] == "FormatError"

    def test_invalid_json(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        result = runner.invoke(main, ["triple-verify", "--input", str(path)])
        assert result.exit_code == 1

    def test_output_file_and_summary(self, runner, tmp_path):
        inp = tmp_path / "t.json"
        save_json(triple_to_json(standard_triple(1)), inp)
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["triple-verify", "--input", str(inp), "--output", str(out)]
        )
        assert result.exit_code == 0
        assert result.output.strip() == "triple-verify: pass"
        rep = json.loads(out.read_text())
        jsonschema.validate(rep, schema("report.v1.json"))
        assert rep["pass"] is True


class TestGeometryVerbs:
    def test_polarize(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "polarize", triple_to_json(standard_triple(3)))
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["outputs"]["wplus"]["ambient_dim"] == 6
        assert max(rep["residuals"].values()) <= 1e-12

    def test_member_inside_disk(self, runner, tmp_path):
        obj = matrix_to_json(np.array([[0.5 + 0.0j]]))
        obj["model"] = "disk"
        result = invoke(runner, tmp_path, "siegel-member", obj)
        assert result.exit_code == 0

    def test_member_outside_disk(self, runner, tmp_path):
        obj = matrix_to_json(np.array([[1.2 + 0.0j]]))
        obj["model"] = "disk"
        result = invoke(runner, tmp_path, "siegel-member", obj)
        assert result.exit_code == 2
        assert report_of(result)["pass"] is False

    def test_member_follows_tol_spd(self, runner, tmp_path):
        # min eigenvalue of I - Z*Z is 1.0e-10: above the default 1e-12, below 1e-8
        obj = {**matrix_to_json(np.diag([np.sqrt(1 - 1e-10), 0.5])), "model": "disk"}
        assert invoke(runner, tmp_path, "siegel-member", obj).exit_code == 0
        result = invoke(runner, tmp_path, "siegel-member", obj, "--tol-spd", "1e-8")
        assert result.exit_code == 2
        assert report_of(result)["residuals"]["min_eigenvalue"] == pytest.approx(1e-10)
        scenario = {"name": "edge", "verb": "siegel-member", "input": obj}
        agg, code = cli.run_suite({"scenarios": [scenario, {**scenario, "tol_spd": 1e-8}]})
        assert code == 2
        assert [s["status"] for s in agg["scenarios"]] == ["passed", "failed"]

    def test_member_needs_model(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "siegel-member", matrix_to_json(np.eye(1) * 0.1))
        assert result.exit_code == 1

    def test_act_identity_fixes_origin(self, runner, tmp_path):
        payload = {
            "a": matrix_to_json(np.eye(2)),
            "b": matrix_to_json(np.zeros((2, 2))),
            "Z": disk_point_to_json(SiegelPoint(np.zeros((2, 2)))),
        }
        result = invoke(runner, tmp_path, "siegel-act", payload)
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["outputs"]["Z"]["model"] == "disk"
        assert all(re == 0.0 and im == 0.0 for re, im in rep["outputs"]["Z"]["data"])

    def test_act_refuses_a_halfspace_point(self, runner, tmp_path):
        payload = generate_input({"make": "symplectic_action", "n": 2}, np.random.default_rng(0))
        payload["Z"] = generate_input({"make": "halfspace_point", "n": 2}, np.random.default_rng(1))
        result = invoke(runner, tmp_path, "siegel-act", payload)
        assert result.exit_code == 1
        rep = report_of(result)
        assert rep["error"] == "FormatError" and "disk-model points" in rep["detail"]

    def test_act_with_singular_block_is_a_named_error(self, runner, tmp_path):
        payload = {
            "a": matrix_to_json(np.diag([1e5, 0.0])),
            "b": matrix_to_json(np.diag([np.sqrt(1e10 - 1), 0.0])),
            "Z": disk_point_to_json(SiegelPoint(np.zeros((2, 2)))),
        }
        result = invoke(runner, tmp_path, "siegel-act", payload)
        assert result.exit_code == 2
        assert report_of(result)["error"] == "NumericallySingular"


class TestCircleVerbs:
    def test_grunsky_flag_overrides_input(self, runner, tmp_path):
        payload = {"diffeo": {"kind": "rotation", "delta": 0.3}, "cutoff": 8}
        result = invoke(runner, tmp_path, "grunsky", payload, "--cutoff", "4")
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["inputs"]["cutoff"] == 4
        assert rep["outputs"]["Z"]["rows"] == 4
        assert rep["residuals"]["z_opnorm"] <= 1e-10  # rotations fix the origin

    def test_grunsky_quadrature_flag(self, runner, tmp_path):
        payload = {"diffeo": {"kind": "mobius", "a": [0.2, 0.0]}}
        result = invoke(
            runner, tmp_path, "grunsky", payload, "--cutoff", "8", "--quadrature", "256"
        )
        assert result.exit_code == 0
        assert report_of(result)["inputs"]["quadrature"] == 256

    def test_grunsky_rejects_bad_diffeo(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "grunsky", {"diffeo": {"kind": "squeeze"}})
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "extra, flags",
        [
            ({"cutoff": 0}, ()),
            ({"cutoff": True}, ()),
            ({"quadrature": 0}, ()),
            ({"quadrature": False}, ()),
            ({}, ("--cutoff", "0")),
            ({"cutoff": 8}, ("--quadrature", "0")),
        ],
    )
    def test_grunsky_cutoff_and_quadrature_must_be_positive_integers(
        self, runner, tmp_path, extra, flags
    ):
        payload = {"diffeo": {"kind": "rotation", "delta": 0.3}, **extra}
        result = invoke(runner, tmp_path, "grunsky", payload, *flags)
        assert result.exit_code == 1
        assert report_of(result)["error"] == "FormatError"

    @pytest.mark.parametrize(
        "payload, flags",
        [
            ({"cutoff": 10**6}, ()),
            ({"cutoff": 8, "quadrature": 10**9}, ()),
            ({}, ("--cutoff", "4", "--quadrature", str(2**40))),
        ],
    )
    def test_grunsky_grid_above_cap_is_guarded_before_sampling(
        self, runner, tmp_path, monkeypatch, payload, flags
    ):
        def boundary(t):
            raise AssertionError("the quadrature grid was built before the guard")

        refused = CircleDiffeo(kind="rotation", params={}, boundary=boundary)
        monkeypatch.setattr(circle, "diffeo_from_spec", lambda spec: refused)
        payload = {"diffeo": {"kind": "rotation", "delta": 0.3}, **payload}
        result = invoke(runner, tmp_path, "grunsky", payload, *flags)
        assert result.exit_code == 2
        assert report_of(result)["error"] == "DimensionGuard"

    def test_grunsky_opnorm_is_that_of_the_emitted_point(self, runner, tmp_path):
        payload = {"diffeo": {"kind": "fourier_flow", "coeffs": [[2, 0.15]]}, "cutoff": 16}
        rep = report_of(invoke(runner, tmp_path, "grunsky", payload))
        Z = matrix_from_json(rep["outputs"]["Z"], extra=("model",))
        assert rep["residuals"]["z_opnorm"] == op_norm(Z)

    def test_torus_period_member(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "torus-period", {"tau": [0.5, 0.5]})
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["outputs"]["period_b"] == [0.5, 0.5]

    def test_torus_period_rejects_lower_half(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "torus-period", {"tau": [0.5, -0.5]})
        assert result.exit_code == 2
        assert report_of(result)["error"] == "NotUpperHalf"


class TestChartVerbs:
    def test_find_reconstructs_rotated_subspace(self, runner, tmp_path, rng):
        split = eigensplit(complexify(standard_triple(3)))
        u = random_orthogonal(6, rng)
        payload = {"frame": frame_to_json(Frame(u @ split.lplus))}
        result = invoke(runner, tmp_path, "chart-find", payload)
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["residuals"]["reconstruction"] <= 1e-7
        assert rep["outputs"]["kernel_dims"][-1] == 0

    def test_find_report_is_the_same_from_a_cold_or_warm_split(self):
        obj = generate_input({"make": "orthogonal_subspace", "n": 5}, np.random.default_rng(8))
        standard_split.cache_clear()
        cold, code = cli.run_verb("chart-find", obj, cli.Options())
        warm, _ = cli.run_verb("chart-find", obj, cli.Options())
        assert code == 0
        assert dumps_canonical(cold) == dumps_canonical(warm)

    def test_find_builds_the_split_once_per_rank(self, monkeypatch):
        # the standard atlas is built once; each call still checks its frame
        calls = []
        real = polarization.eigensplit

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(polarization, "eigensplit", counted)
        standard_split.cache_clear()
        rng = np.random.default_rng(9)
        lplus = standard_split(4).lplus
        for _ in range(2):
            payload = {"frame": frame_to_json(Frame(random_orthogonal(8, rng) @ lplus))}
            report, code = cli.run_verb("chart-find", payload, cli.Options())
            assert code == 0 and report["pass"] is True
        assert len(calls) == 1
        skewed = frame_to_json(Frame(lplus))
        skewed["data"][0] = [2.0, 0.0]
        report, code = cli.run_verb("chart-find", {"frame": skewed}, cli.Options())
        assert (code, report["error"]) == (2, "RankMismatch")
        short = frame_to_json(Frame(lplus[:, :3]))
        report, code = cli.run_verb("chart-find", {"frame": short}, cli.Options())
        assert (code, report["error"]) == (1, "FormatError")
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "ambient, rows, error, code",
        [(None, 2, "FormatError", 1), (True, 1, "FormatError", 1), (2.0, 2, "FormatError", 1),
         (4, 2, "DimensionMismatch", 2)],
        ids=["missing", "true", "float", "disagrees"],
    )
    def test_find_reads_ambient_dim_as_an_integer(self, ambient, rows, error, code):
        # matrix.v1.json types ambient_dim as an integer; only an integer
        # that disagrees with rows is a domain error
        frame = frame_to_json(Frame(np.eye(rows)[:, :1]))
        if ambient is None:
            del frame["ambient_dim"]
        else:
            frame["ambient_dim"] = ambient
        report, got = cli.run_verb("chart-find", {"frame": frame}, cli.Options())
        assert (got, report["error"]) == (code, error)
        assert "ambient_dim" in report["detail"]

    def test_find_keeps_the_split_cache_bounded(self):
        standard_split.cache_clear()
        bound = standard_split.cache_info().maxsize
        for n in range(1, bound + 4):
            obj = generate_input({"make": "orthogonal_subspace", "n": n}, np.random.default_rng(n))
            report, code = cli.run_verb("chart-find", obj, cli.Options())
            assert code == 0, report
        assert standard_split.cache_info().currsize == bound

    def test_transition_full_swap(self, runner, tmp_path):
        payload = {
            "Z": matrix_to_json(np.array([[0.0, 0.5], [-0.5, 0.0]])),
            "source": [],
            "target": [1, 2],
        }
        result = invoke(runner, tmp_path, "chart-transition", payload)
        assert result.exit_code == 0
        rep = report_of(result)
        Z2 = np.array([c[0] + 1j * c[1] for c in rep["outputs"]["Z"]["data"]]).reshape(2, 2)
        assert np.allclose(Z2, [[0.0, -2.0], [2.0, 0.0]])

    def test_transition_parity_obstruction(self, runner, tmp_path):
        payload = {
            "Z": matrix_to_json(np.array([[0.0, 0.5], [-0.5, 0.0]])),
            "source": [],
            "target": [1],
        }
        result = invoke(runner, tmp_path, "chart-transition", payload)
        assert result.exit_code == 2
        assert report_of(result)["error"] == "OutsideChart"

    @pytest.mark.parametrize("index", [3, 10**30], ids=["n+1", "1e30"])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_transition_rejects_a_chart_above_n(self, side, index):
        # at n = 2 a chart is a subset of {1, 2}; an index above n named no
        # slot and was ignored, so the point came back unchanged with a pass
        payload = {
            "Z": matrix_to_json(np.array([[0.0, 0.5], [-0.5, 0.0]])),
            "source": [1, 2],
            "target": [1, 2],
        }
        payload[side] = [1, index]
        report, code = cli.run_verb("chart-transition", payload, cli.Options())
        assert code == 2
        assert report["error"] == "DimensionMismatch"
        assert report["pass"] is False


    @pytest.mark.parametrize("atol", [0, -1e-9, float("inf"), float("nan"), True])
    def test_transition_atol_must_be_positive_and_finite(self, atol):
        payload = {
            "Z": matrix_to_json(np.array([[0.0, 0.5], [-0.5, 0.0]])),
            "source": [],
            "target": [1, 2],
            "atol": atol,
        }
        report, code = cli.run_verb("chart-transition", payload, cli.Options())
        assert code == 1
        assert report["error"] == "FormatError"

    def test_transition_atol_above_ceiling_is_rejected(self, tmp_path):
        # with a loose budget a non-antisymmetric Z would pass
        path = tmp_path / "input.json"
        Z = np.array([[0.0, 0.5], [0.7, 0.0]])
        save_json({"Z": matrix_to_json(Z), "source": [], "target": [1, 2], "atol": 1e3}, path)
        proc = subprocess.run(
            [sys.executable, "-m", "polargrass.cli", "chart-transition", "--input", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["error"] == "FormatError"

    def test_transition_atol_at_ceiling_is_accepted(self):
        payload = {
            "Z": matrix_to_json(np.array([[0.0, 0.5], [-0.5, 0.0]])),
            "source": [],
            "target": [1, 2],
            "atol": cli.MAX_CHART_ATOL,
        }
        assert cli.MAX_CHART_ATOL == 1e-6
        report, code = cli.run_verb("chart-transition", payload, cli.Options())
        assert code == 0
        assert report["pass"] is True

    def test_transition_of_overflowing_point_is_a_named_error(self, tmp_path):
        # ||Z|| overflows: a relative antisymmetry budget must not become infinite
        Z = np.zeros((4, 4))
        Z[0, 1], Z[1, 0], Z[2, 3], Z[3, 2] = 0.5, -0.5, 0.3, -0.3
        Z[2, 2] = 1e300
        path = tmp_path / "input.json"
        save_json({"Z": matrix_to_json(Z), "source": [], "target": [1, 2]}, path)
        proc = subprocess.run(
            [sys.executable, "-m", "polargrass.cli", "chart-transition", "--input", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["error"] == "InvariantViolation"


class TestFockVerb:
    def test_fermion_model(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "fock-car", {"model": "fermion", "cutoff": 2})
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["outputs"] == {"modes": 3, "dim": 8, "cyclicity_rank": 8}
        assert rep["residuals"]["car_max"] <= 1e-12

    def test_unknown_model(self, runner, tmp_path):
        result = invoke(runner, tmp_path, "fock-car", {"model": "boson"})
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "payload, flags",
        [
            # the first cutoff whose mode count is above the cap
            ({"model": "fermion", "cutoff": MAX_MODES}, ()),
            ({"model": "fermion", "cutoff": 10**9}, ()),
            ({"model": "fermion"}, ("--cutoff", "100000")),
        ],
    )
    def test_cutoff_above_cap_is_guarded_before_building(
        self, runner, tmp_path, monkeypatch, payload, flags
    ):
        def refuse(N):
            raise AssertionError(f"fermion_polarization({N}) built before the guard")

        monkeypatch.setattr(circle, "fermion_polarization", refuse)
        result = invoke(runner, tmp_path, "fock-car", payload, *flags)
        assert result.exit_code == 2
        assert report_of(result)["error"] == "DimensionGuard"

    def test_cutoff_on_the_triple_form_is_refused(self, runner, tmp_path):
        # the triple+frame form takes no cutoff, so the flag is an unknown key
        t = standard_triple(1)
        frame = Frame(eigensplit(complexify(t)).lplus)
        payload = {"triple": triple_to_json(t), "frame": frame_to_json(frame)}
        assert invoke(runner, tmp_path, "fock-car", payload).exit_code == 0
        result = invoke(runner, tmp_path, "fock-car", payload, "--cutoff", "3")
        assert result.exit_code == 1
        rep = report_of(result)
        assert rep["error"] == "FormatError" and "cutoff" in rep["detail"]

    @pytest.mark.parametrize("cutoff", [True, False, -1, 2.5, "3"])
    def test_cutoff_must_be_an_integer(self, runner, tmp_path, cutoff):
        result = invoke(runner, tmp_path, "fock-car", {"model": "fermion", "cutoff": cutoff})
        assert result.exit_code == 1
        assert report_of(result)["error"] == "FormatError"


class TestReportSuite:
    def test_shipped_suite_passes(self, runner, tmp_path):
        out = tmp_path / "agg.json"
        result = runner.invoke(
            main, ["report-suite", "--input", SHIPPED_SUITE, "--output", str(out)]
        )
        assert result.exit_code == 0, result.output
        agg = json.loads(out.read_text())
        jsonschema.validate(agg, schema("suite.v1.json"))
        assert agg["pass"] is True
        assert agg["counts"]["failed"] == 0
        assert agg["counts"]["expected_failures"] == 2
        assert agg["counts"]["total"] == len(agg["scenarios"])

    def test_repeat_runs_are_byte_identical(self, runner, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = runner.invoke(
                main, ["report-suite", "--input", SHIPPED_SUITE, "--output", str(out)]
            )
            assert result.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_flag_matches_env(self, runner, tmp_path):
        flag_out = tmp_path / "flag.json"
        env_out = tmp_path / "env.json"
        r1 = runner.invoke(
            main,
            ["report-suite", "--input", SHIPPED_SUITE, "--seed", "99", "--output", str(flag_out)],
        )
        r2 = runner.invoke(
            main,
            ["report-suite", "--input", SHIPPED_SUITE, "--output", str(env_out)],
            env={"POLARGRASS_SEED": "99"},
        )
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert flag_out.read_bytes() == env_out.read_bytes()
        assert json.loads(flag_out.read_text())["seed"] == 99

    def test_empty_suite_passes(self, runner, tmp_path):
        path = tmp_path / "empty.json"
        save_json({"scenarios": []}, path)
        result = runner.invoke(main, ["report-suite", "--input", str(path)])
        assert result.exit_code == 0
        agg = json.loads(result.output)
        assert agg["pass"] is True and agg["counts"]["total"] == 0

    def test_failing_scenario_fails_suite(self, runner, tmp_path):
        config = {
            "seed": 1,
            "scenarios": [
                {
                    "name": "bad-torus",
                    "verb": "torus-period",
                    "input": {"tau": [0.0, -1.0]},
                }
            ],
        }
        path = tmp_path / "cfg.json"
        save_json(config, path)
        result = runner.invoke(main, ["report-suite", "--input", str(path)])
        assert result.exit_code == 2
        agg = json.loads(result.output)
        assert agg["scenarios"][0]["status"] == "failed"
        assert agg["counts"]["failed"] == 1

    def test_unexpected_pass_fails_suite(self, runner, tmp_path):
        config = {
            "seed": 1,
            "scenarios": [
                {
                    "name": "should-fail-but-does-not",
                    "verb": "torus-period",
                    "input": {"tau": [0.0, 1.0]},
                    "expect_error": "NotUpperHalf",
                }
            ],
        }
        path = tmp_path / "cfg.json"
        save_json(config, path)
        result = runner.invoke(main, ["report-suite", "--input", str(path)])
        assert result.exit_code == 2
        assert json.loads(result.output)["scenarios"][0]["status"] == "unexpected-pass"

    def test_scenario_cutoff_on_a_verb_without_one_is_refused(self):
        scenario = {"name": "t", "verb": "triple-verify",
                    "generate": {"make": "standard_triple", "n": 2}}
        agg, code = cli.run_suite({"scenarios": [scenario, {**scenario, "cutoff": 4}]})
        assert code == 2
        assert [s["status"] for s in agg["scenarios"]] == ["passed", "failed"]
        assert agg["scenarios"][1]["report"]["error"] == "FormatError"

    def test_options_do_not_change_the_config(self):
        rotation = {"diffeo": {"kind": "rotation", "delta": 0.3}, "cutoff": 8}
        config = {"scenarios": [{"name": "g", "verb": "grunsky", "cutoff": 4, "input": rotation}]}
        before = json.dumps(config)
        agg, code = cli.run_suite(config)
        assert code == 0 and agg["scenarios"][0]["report"]["inputs"]["cutoff"] == 4
        assert json.dumps(config) == before

    @pytest.mark.parametrize("n", [True, False])
    def test_generate_n_must_be_a_positive_integer(self, n):
        scenario = {"name": "p", "verb": "siegel-member",
                    "generate": {"make": "siegel_point", "n": n}}
        with pytest.raises(FormatError, match="generate size n"):
            cli.run_suite({"scenarios": [scenario]})

    def test_unknown_scenario_key_rejected(self, runner, tmp_path):
        config = {"scenarios": [{"name": "x", "verb": "torus-period", "payload": {}}]}
        path = tmp_path / "cfg.json"
        save_json(config, path)
        result = runner.invoke(main, ["report-suite", "--input", str(path)])
        assert result.exit_code == 1

    def test_summary_line(self, runner, tmp_path):
        out = tmp_path / "agg.json"
        result = runner.invoke(
            main, ["report-suite", "--input", SHIPPED_SUITE, "--output", str(out)]
        )
        assert "report-suite: pass" in result.output
        assert "expected failures" in result.output


def shipped_suite():
    return json.loads(resources.files("polargrass").joinpath("configs/acceptance_suite.json").read_text())


class TestConfigSchemas:
    def test_shipped_suite_validates(self):
        jsonschema.validate(shipped_suite(), schema("suite_config.v1.json"))

    def test_cutoff_zero_fock_scenario_validates_and_passes(self):
        # fock-car takes cutoff 0, one mode
        config = {
            "scenarios": [
                {"name": "one-mode", "verb": "fock-car", "input": {"model": "fermion"}, "cutoff": 0}
            ]
        }
        jsonschema.validate(config, schema("suite_config.v1.json"))
        agg, code = cli.run_suite(config)
        assert code == 0 and agg["scenarios"][0]["status"] == "passed"
        report, _ = cli.run_verb("fock-car", {"model": "fermion", "cutoff": 0}, cli.Options())
        assert report["outputs"]["modes"] == 1

    @pytest.mark.parametrize("where", ["config", "scenario"])
    def test_a_negative_seed_is_refused_by_schema_and_builder(self, where):
        # refused even where no generate recipe would read it
        scenario = {"name": "t", "verb": "torus-period", "input": {"tau": [0.5, 0.5]}}
        config = {"seed": -1, "scenarios": [scenario]} if where == "config" else {
            "scenarios": [{**scenario, "seed": -1}]}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(config, schema("suite_config.v1.json"))
        with pytest.raises(FormatError, match="non-negative integer"):
            cli.run_suite(config)

    def test_cutoff_zero_grunsky_scenario_fails_at_run_time(self):
        config = {
            "scenarios": [
                {
                    "name": "zero-cutoff",
                    "verb": "grunsky",
                    "input": {"diffeo": {"kind": "rotation", "delta": 0.3}},
                    "cutoff": 0,
                    "expect_error": "FormatError",
                }
            ]
        }
        jsonschema.validate(config, schema("suite_config.v1.json"))
        agg, code = cli.run_suite(config)
        assert code == 0 and agg["scenarios"][0]["status"] == "failed-as-expected"

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "rotation", "delta": 0.3},
            {"kind": "mobius", "a": [0.3, -0.1]},
            {"kind": "fourier_flow", "coeffs": [[2, 0.15], [3, 0.01]]},
        ]
        + [s["input"]["diffeo"] for s in shipped_suite()["scenarios"] if "diffeo" in s.get("input", {})],
    )
    def test_diffeo_specs_validate(self, spec):
        jsonschema.validate(spec, schema("diffeo.v1.json"))
        assert circle.diffeo_from_spec(spec).kind == spec["kind"]

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "rotation", "delta": 0.3, "a": [0.3, 0.0]},
            {"kind": "mobius", "a": [0.3, 0.0], "scale": 2},
        ],
    )
    def test_extra_key_is_rejected_by_schema_and_builder(self, spec):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(spec, schema("diffeo.v1.json"))
        with pytest.raises(FormatError):
            circle.diffeo_from_spec(spec)


def test_help_lists_all_verbs(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for verb in (
        "triple-verify",
        "triple-complete",
        "polarize",
        "siegel-member",
        "siegel-act",
        "grunsky",
        "chart-find",
        "chart-transition",
        "fock-car",
        "torus-period",
        "report-suite",
    ):
        assert verb in result.output


NO_SCIPY_SCRIPT = """
import json, sys
from importlib import resources
from polargrass import cli, polarization
fock, fock_code = cli.run_verb("fock-car", {"model": "fermion", "cutoff": 9}, cli.Options())
grunsky, grunsky_code = cli.run_verb(
    "grunsky", {"diffeo": {"kind": "fourier_flow", "coeffs": [[2, 0.15]]}, "cutoff": 16},
    cli.Options(),
)
random_loaded = "numpy.random" in sys.modules
config = json.loads(
    resources.files("polargrass").joinpath("configs/acceptance_suite.json").read_text()
)
suite, suite_code = cli.run_suite(config)
print(json.dumps({
    "codes": [suite_code, fock_code, grunsky_code],
    "modes": fock["outputs"]["modes"],
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "numpy_random": random_loaded,
}))
"""


def test_no_verb_loads_scipy():
    # a fresh interpreter: fock-car at 10 modes and grunsky run on numpy
    # alone without loading numpy.random; then the suite (which generates
    # its inputs through sampling, so it may load numpy.random) loads no scipy
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0, 0] and out["modes"] == 10
    assert out["scipy"] == []
    assert out["numpy_random"] is False


COLD_IMPORT_SCRIPT = """
import json, sys
before = set(sys.modules)
import polargrass.cli as cli
loaded = {m.split(".")[0] for m in set(sys.modules) - before}
foreign = sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "polargrass"})
watched = ("polargrass.orthograss", "polargrass.circle", "polargrass.fock", "polargrass.sampling")
imported = [m for m in watched if m in sys.modules]
report, code = cli.run_verb("torus-period", {"tau": [0.5, 0.5]}, cli.Options())
print(json.dumps({"foreign": foreign, "imported": imported, "code": code,
                  "torus": [m for m in watched if m in sys.modules]}))
"""


def test_a_cold_verb_loads_only_what_it_runs():
    # a fresh interpreter: the CLI module loads no package beyond the standard
    # library and numpy, and none of the verbs' own modules; torus-period then
    # loads the circle models but no Fock space or chart atlas
    proc = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT_SCRIPT], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["foreign"] == [] and out["imported"] == []
    assert out["code"] == 0 and out["torus"] == ["polargrass.circle"]


def cold(args, env=None, **kwargs):
    """``python -m polargrass.cli ARGS`` in a fresh process."""
    return subprocess.run(
        [sys.executable, "-m", "polargrass.cli", *args],
        env={**os.environ, **(env or {})},
        timeout=120,
        **kwargs,
    )


def warm(args):
    """``main(ARGS)`` in this process: (exit code, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_:
            main(args)
    return exit_.value.code, out.getvalue().encode()


class TestColdProcess:
    """A real ``python -m polargrass.cli`` writes the bytes and exits with the
    code that ``main`` gives in-process."""

    @pytest.fixture()
    def paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help is wrapped alike in both
        inputs = {
            "upper": {"tau": [0.5, 0.5]},
            "lower": {"tau": [0.5, -0.5]},
            "modelless": matrix_to_json(np.eye(1) * 0.1),
        }
        paths = {"absent": str(tmp_path / "absent.json"), "out": str(tmp_path / "report.json")}
        for name, payload in inputs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            save_json(payload, paths[name])
        return paths

    CASES = {
        "pass": (["torus-period", "--input", "{upper}"], 0),
        "failed-check": (["torus-period", "--input", "{lower}"], 2),
        "format-error": (["siegel-member", "--input", "{modelless}"], 1),
        "missing-file": (["torus-period", "--input", "{absent}"], 1),
        "no-input": (["torus-period"], 2),
        "unknown-verb": (["torus-periods", "--input", "{upper}"], 2),
        "bad-tol-eq": (["torus-period", "--input", "{upper}", "--tol-eq", "abc"], 2),
        "help": (["--help"], 0),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_stdout_and_exit_code_match_main(self, paths, case):
        template, code = self.CASES[case]
        args = [arg.format(**paths) for arg in template]
        proc = cold(args, capture_output=True)
        assert (proc.returncode, proc.stdout) == warm(args)
        assert proc.returncode == code
        if code == 2 and case != "failed-check":
            assert proc.stdout == b"" and b"usage: polargrass" in proc.stderr

    def test_output_file_is_complete_before_the_exit(self, paths):
        args = ["torus-period", "--input", paths["upper"], "--output", paths["out"]]
        proc = cold(args, capture_output=True)
        assert (proc.returncode, proc.stdout) == (0, b"torus-period: pass\n")
        with open(paths["out"], "rb") as fh:
            written = fh.read()
        assert warm(args) == (0, b"torus-period: pass\n")
        with open(paths["out"], "rb") as fh:
            assert fh.read() == written
        assert json.loads(written)["pass"] is True

    def test_seed_from_the_environment_matches_the_flag(self):
        args = ["report-suite", "--input", SHIPPED_SUITE]
        proc = cold(args, env={"POLARGRASS_SEED": "99"}, capture_output=True)
        assert (proc.returncode, proc.stdout) == warm([*args, "--seed", "99"])
        assert proc.returncode == 0 and json.loads(proc.stdout)["seed"] == 99

    GENERATED = {"name": "disk", "verb": "siegel-member",
                 "generate": {"make": "siegel_point", "n": 2}}
    #: (verb and flags, input object or None for the shipped suite)
    OPTION_ERRORS = {
        "tol-eq-negative": (["torus-period", "--tol-eq=-1"], {"tau": [0.5, 0.5]}),
        "tol-eq-zero": (["torus-period", "--tol-eq=0"], {"tau": [0.5, 0.5]}),
        "tol-eq-nan": (["torus-period", "--tol-eq=nan"], {"tau": [0.5, 0.5]}),
        "tol-eq-inf": (["torus-period", "--tol-eq=inf"], {"tau": [0.5, 0.5]}),
        "tol-spd-negative": (["torus-period", "--tol-spd=-1"], {"tau": [0.5, 0.5]}),
        "scenario-tol-eq-string": (["report-suite"], {"scenarios": [{**GENERATED, "tol_eq": "abc"}]}),
        "scenario-tol-eq-list": (["report-suite"], {"scenarios": [{**GENERATED, "tol_eq": [1]}]}),
        "scenario-tol-spd-string": (["report-suite"], {"scenarios": [{**GENERATED, "tol_spd": "x"}]}),
        "config-seed": (["report-suite"], {"seed": -1, "scenarios": [GENERATED]}),
        "scenario-seed": (["report-suite"], {"scenarios": [{**GENERATED, "seed": -3}]}),
        "seed-flag": (["report-suite", "--seed=-1"], None),
        "seed-env": (["report-suite"], None),
    }

    @pytest.mark.parametrize("case", list(OPTION_ERRORS))
    def test_a_bad_option_value_is_a_format_error_report(self, tmp_path, case):
        args, payload = self.OPTION_ERRORS[case]
        path = SHIPPED_SUITE
        if payload is not None:
            path = tmp_path / "input.json"
            save_json(payload, path)
        env = {"POLARGRASS_SEED": "-1"} if case == "seed-env" else {}
        proc = cold([args[0], "--input", str(path), *args[1:]], env=env, capture_output=True)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["error"] == "FormatError"
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "verb, payload",
        [
            ("torus-period", {"tau": [0.5, 0.5]}),
            # a report larger than the stdout buffer fails at the write, not the flush
            ("grunsky", {"diffeo": {"kind": "rotation", "delta": 0.3}, "cutoff": 32}),
        ],
        ids=["flush", "write"],
    )
    def test_a_closed_stdout_exits_non_zero_without_a_traceback(self, tmp_path, verb, payload):
        path = tmp_path / "input.json"
        save_json(payload, path)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = cold([verb, "--input", str(path)], stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode != 0
        assert b"Traceback" not in proc.stderr
