"""Every verb, fed a broken copy of an acceptance-suite input, fails by name.

Each scenario input of the shipped suite (generated ones from the suite's
own seeds) is mutated one place at a time: each key dropped, each integer
replaced by a boolean and by 0, each number replaced by 1e300 and by the
integer 10**400 (past the double range), each
``[re, im]``-shaped pair cut short and lengthened, and an unknown key added
to each object.  A mutated input may still pass; what is checked is that a
failure names a ``PolargrassError`` subclass and that the report, like
every report, serializes.

The options around each input are mutated too: the suite's seed, and each
scenario's seed, tolerances, cutoff, quadrature and generated size.  A
mutated suite either runs to a ``suite.v1`` object or raises
``FormatError``, which ``report-suite`` writes as its error object.
"""

import copy
import json
from importlib import resources

import numpy as np
import pytest

from polargrass import cli, errors
from polargrass.sampling import generate_input
from polargrass.serialize import dumps_canonical

SUITE = json.loads(
    resources.files("polargrass").joinpath("configs/acceptance_suite.json").read_text()
)

ERROR_NAMES = {
    c.__name__
    for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, errors.PolargrassError)
}


def _input(pos: int, scen: dict):
    if "input" in scen:
        return scen["input"]
    rng = np.random.default_rng(SUITE["seed"] + pos)
    return json.loads(json.dumps(generate_input(scen["generate"], rng)))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(obj, path=()):
    yield path, obj
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _walk(value, path + (key,))


def _edit(obj, path, change):
    """A deep copy of ``obj`` with ``change(parent, key)`` applied at ``path``."""
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    change(parent, path[-1])
    return out


def _set(value):
    return lambda parent, key: parent.__setitem__(key, value)


def _mutations(obj):
    for path, value in _walk(obj):
        if isinstance(value, dict):
            yield f"unknown key in {path}", _edit(obj, path + ("zz_unknown",), _set(1))
        if not path:
            continue
        if isinstance(path[-1], str):
            yield f"drop {path}", _edit(obj, path, lambda p, k: p.pop(k))
        if _is_number(value):
            yield f"1e300 at {path}", _edit(obj, path, _set(1e300))
            yield f"10**400 at {path}", _edit(obj, path, _set(10**400))
        if isinstance(value, int) and not isinstance(value, bool):
            yield f"true at {path}", _edit(obj, path, _set(True))
            yield f"0 at {path}", _edit(obj, path, _set(0))
        if isinstance(value, list) and len(value) == 2 and all(_is_number(x) for x in value):
            yield f"short pair at {path}", _edit(obj, path, _set(value[:1]))
            yield f"long pair at {path}", _edit(obj, path, _set(value + [0.0]))


def test_suite_covers_every_verb():
    assert {s["verb"] for s in SUITE["scenarios"]} == set(cli._HANDLERS)


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize(
    "pos", range(len(SUITE["scenarios"])), ids=[s["name"] for s in SUITE["scenarios"]]
)
def test_mutated_inputs_fail_by_name(pos):
    scen = SUITE["scenarios"][pos]
    bad = []
    count = 0
    for label, obj in _mutations(_input(pos, scen)):
        count += 1
        report, code = cli.run_verb(scen["verb"], obj, cli.Options())
        dumps_canonical(report)
        if "error" in report and report["error"] not in ERROR_NAMES:
            bad.append(f"{label}: {report['error']}: {report['detail']}")
        assert (code == 0) == report["pass"], label
    assert count > 0
    assert bad == []


BAD_SEEDS = (-1, True, "x")
BAD_TOLS = (-1, 0, "x", [1], True, 10**400)
BAD_SIZES = (True, -1, "x", 10**400)


def _scenario_mutations(scen):
    for key, values in (("seed", BAD_SEEDS), ("tol_eq", BAD_TOLS), ("tol_spd", BAD_TOLS),
                        ("cutoff", BAD_SIZES), ("quadrature", BAD_SIZES)):
        for value in values:
            yield f"{key}={value!r}", {**scen, key: value}
    if "generate" in scen:
        for value in (True, 0, 10**400):
            yield f"generate.n={value!r}", {**scen, "generate": {**scen["generate"], "n": value}}


def _suite_problem(config):
    """None if ``run_suite`` gives a serializable suite or raises
    ``FormatError``; else what it raised."""
    try:
        aggregate, _ = cli.run_suite(config)
    except errors.FormatError:
        return None
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    dumps_canonical(aggregate)
    return None


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_mutated_suite_seed_fails_by_name(seed):
    assert _suite_problem({**SUITE, "seed": seed}) is None


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize(
    "pos", range(len(SUITE["scenarios"])), ids=[s["name"] for s in SUITE["scenarios"]]
)
def test_mutated_scenario_options_fail_by_name(pos):
    scen = SUITE["scenarios"][pos]
    # alone at position 0, the scenario keeps the seed it has in the suite
    bad = []
    for label, mutated in _scenario_mutations(scen):
        problem = _suite_problem({"seed": SUITE["seed"] + pos, "scenarios": [mutated]})
        if problem is not None:
            bad.append(f"{label}: {problem}")
    assert bad == []
