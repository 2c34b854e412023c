"""The four workloads: their inputs, made from a seed, and their checks.

A workload is a fixed list of operations that one round runs in order,
one at a time (a closed loop with one client).  Every input is made from
``--seed`` alone, so a seed reproduces a run's inputs exactly; the sizes
never depend on it, so every seed does the same amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

import checks


@dataclass
class Op:
    """One operation: a verb and its JSON input, or a CLI command line."""

    name: str
    verb: str
    inp: dict = field(default_factory=dict)
    expect: str | None = None  # error name of an input that must be rejected
    argv: list | None = None  # cli-cold: arguments after ``-m polargrass.cli``
    text: str = field(init=False)

    def __post_init__(self) -> None:
        self.text = json.dumps(self.inp)

    def check(self, rep: dict, splits) -> list:
        """Problems with the parsed report ``rep`` of this operation."""
        if self.expect is not None:
            return checks.rejection(self.expect, rep)
        if "error" in rep:
            return [f"unexpected error {rep['error']}: {rep.get('detail')}"]
        if self.verb == "chart-find":
            return checks.chart_find(self.inp, rep, splits(self.inp["frame"]["cols"]))
        return checks.VERB_CHECKS[self.verb](self.inp, rep)


@dataclass
class Workload:
    ops: list
    warmup: list  # each verb once at its smallest size, run during set-up
    largest: str  # name of the top of the sweep, reported as op_largest_ms
    in_process: bool = True


def _rngs(seed: int):
    """Independent generators, one per input, all from one seed."""
    seq = np.random.SeedSequence(seed)
    while True:
        yield np.random.default_rng(seq.spawn(1)[0])


def grunsky_sweep(seed: int, pg, splits) -> Workload:
    rng = np.random.default_rng(seed)
    delta = float(rng.uniform(0.0, 2.0 * np.pi))
    arg = float(rng.uniform(0.0, 2.0 * np.pi))
    # Flow amplitudes shrink by at most 3 % from the values known to pass.
    s = float(rng.uniform(0.97, 1.0))
    diffeos = [
        ("rotation", {"kind": "rotation", "delta": delta}, (16, 32, 64, 128, 256)),
        ("mobius", {"kind": "mobius", "a": [0.1 * np.cos(arg), 0.1 * np.sin(arg)]},
         (16, 32, 48, 64, 96)),
        ("flow2", {"kind": "fourier_flow", "coeffs": [[2, 0.15 * s]]}, (16, 32, 64, 96, 128)),
        ("flow2big", {"kind": "fourier_flow", "coeffs": [[2, 0.3 * s]]}, (16, 24, 32, 48, 64)),
        ("flow31", {"kind": "fourier_flow", "coeffs": [[3, 0.1 * s], [1, 0.2 * s]]},
         (16, 24, 32, 48, 64)),
    ]
    ops = [Op(f"grunsky/{label}/N={N}", "grunsky", {"diffeo": spec, "cutoff": N})
           for label, spec, sizes in diffeos for N in sizes]
    warmup = [Op("warmup", "grunsky", {"diffeo": spec, "cutoff": sizes[0]})
              for _, spec, sizes in diffeos]
    return Workload(ops, warmup, "grunsky/rotation/N=256")


def fock_sweep(seed: int, pg, splits) -> Workload:
    # The fermion model has no free parameter: the seed orders the round.
    cutoffs = np.random.default_rng(seed).permutation(np.arange(3, 10))
    ops = [Op(f"fock-car/modes={c + 1}", "fock-car", {"model": "fermion", "cutoff": int(c)})
           for c in cutoffs]
    warmup = [Op("warmup", "fock-car", {"model": "fermion", "cutoff": 3})]
    return Workload(ops, warmup, "fock-car/modes=10")


def _chart_transition(rng, n: int, target: list) -> dict:
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Z = (A - A.T) / (2.0 * np.sqrt(n))
    return {"Z": _wire(Z), "source": [], "target": target}


def _wire(M) -> dict:
    M = np.asarray(M, dtype=complex)
    return {"rows": M.shape[0], "cols": M.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in M.ravel()]}


def _chart_center(rng, L: np.ndarray) -> dict:
    """A chart center W_S (Z = 0) over a random half of the slots, with its
    columns mixed by a random unitary: the chart search must descend."""
    n = L.shape[1]
    chart = sorted(int(j) for j in rng.choice(np.arange(1, n + 1), n // 2, replace=False))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    U, _ = np.linalg.qr(A)
    W = checks.chart_graph(L, chart, np.zeros((n, n))) @ U
    return {"frame": {**_wire(W), "ambient_dim": 2 * n}}


def geometry_batch(seed: int, pg, splits) -> Workload:
    gen = pg.sampling.generate_input
    rngs = _rngs(seed)
    ops: list = []

    def add(verb, inp, label, expect=None):
        ops.append(Op(f"{verb}/{label}", verb, inp, expect))

    for n in (2, 4, 6, 8):
        add("triple-verify", gen({"make": "pullback_triple", "n": n}, next(rngs)), f"n={n}")
        add("polarize", gen({"make": "pullback_triple", "n": n}, next(rngs)), f"n={n}")
        for omit in ("g", "J", "omega"):
            add("triple-complete",
                gen({"make": "partial_triple", "n": n, "omit": omit}, next(rngs)),
                f"omit={omit}/n={n}")
    add("triple-complete", gen({"make": "negated_structure", "n": 4}, next(rngs)),
        "negated/n=4", "NotPositive")
    for n in (4, 8, 16, 32):
        add("siegel-member", gen({"make": "siegel_point", "n": n}, next(rngs)), f"disk/n={n}")
        add("siegel-member", gen({"make": "halfspace_point", "n": n}, next(rngs)),
            f"halfspace/n={n}")
        add("siegel-act", gen({"make": "symplectic_action", "n": n}, next(rngs)), f"n={n}")
        add("chart-find", gen({"make": "orthogonal_subspace", "n": n}, next(rngs)),
            f"rotated/n={n}")
        add("chart-transition", _chart_transition(next(rngs), n, [1, 2]), f"even/n={n}")
    for n in (4, 8, 16):
        add("chart-find", _chart_center(next(rngs), splits(n)), f"descent/n={n}")
    add("chart-transition", _chart_transition(next(rngs), 4, [1]), "odd/n=4", "OutsideChart")
    for i in range(4):
        r = next(rngs)
        add("torus-period", {"tau": [float(r.uniform(-1, 1)), float(r.uniform(0.2, 2))]},
            f"tau{i}")
    add("torus-period", {"tau": [0.5, -0.5]}, "lower-half", "NotUpperHalf")
    # Warm each verb at its smallest input; rejections warm the error path.
    warmup, seen = [], set()
    for op in ops:
        if (op.verb, op.expect) not in seen:
            seen.add((op.verb, op.expect))
            warmup.append(op)
    return Workload(ops, warmup, "chart-find/rotated/n=32")


def cli_cold(seed: int, pg, splits) -> Workload:
    gen = pg.sampling.generate_input
    rngs = _rngs(seed)
    s = float(next(rngs).uniform(0.97, 1.0))
    r = next(rngs)
    inputs = [
        ("triple-verify", gen({"make": "pullback_triple", "n": 2}, next(rngs))),
        ("triple-complete", gen({"make": "partial_triple", "n": 2, "omit": "omega"}, next(rngs))),
        ("polarize", gen({"make": "pullback_triple", "n": 2}, next(rngs))),
        ("siegel-member", gen({"make": "siegel_point", "n": 2}, next(rngs))),
        ("siegel-act", gen({"make": "symplectic_action", "n": 2}, next(rngs))),
        ("grunsky", {"diffeo": {"kind": "fourier_flow", "coeffs": [[2, 0.15 * s]]},
                     "cutoff": 16}),
        ("chart-find", gen({"make": "orthogonal_subspace", "n": 3}, next(rngs))),
        ("chart-transition", _chart_transition(next(rngs), 4, [1, 2])),
        ("fock-car", {"model": "fermion", "cutoff": 3}),
        ("torus-period", {"tau": [float(r.uniform(-1, 1)), float(r.uniform(0.2, 2))]}),
    ]
    ops = [Op(f"cli/{verb}", verb, inp) for verb, inp in inputs]
    ops.append(Op("cli/report-suite", "report-suite", argv=[
        "report-suite", "--input", "src/polargrass/configs/acceptance_suite.json"]))
    warmup = [ops[-2]]
    return Workload(ops, warmup, "cli/report-suite", in_process=False)


WORKLOADS = {
    "cli-cold": cli_cold,
    "grunsky-sweep": grunsky_sweep,
    "fock-sweep": fock_sweep,
    "geometry-batch": geometry_batch,
}
