"""One workload process: set up, say READY, run timed rounds, check.

``run.py`` starts this file with BLAS pinned to one thread and measures
the time until the READY line as set-up time.  It then sends either
``exit`` (a set-up-only cold start) or the number of seconds to measure.
The process then runs whole rounds of the workload's operations until
that time has passed (two rounds at least), checks the outputs outside
the timed interval, and prints one JSON line with its figures.

Every in-process operation takes the CLI's path: the JSON text is
parsed, ``polargrass.cli.run_verb`` runs, and
``serialize.dumps_canonical`` emits the report.  ``cli-cold`` starts a
real ``python -m polargrass.cli`` process per operation instead.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import polargrass.cli as cli
import polargrass.sampling
from polargrass.circle import fermion_polarization
from polargrass.fock import build_fock
from polargrass.polarization import complexify, eigensplit
from polargrass.triples import standard_triple

import checks
import tracer as tracing
from workloads import WORKLOADS

OPTS = cli.Options()
HERE = os.path.dirname(os.path.abspath(__file__))


@functools.lru_cache(maxsize=None)
def split_lplus(n: int) -> np.ndarray:
    """The program's eigenbasis of the standard triple, on which charts live."""
    return eigensplit(complexify(standard_triple(n))).lplus


class Runner:
    def __init__(self, workload: str, seed: int, trace: bool, out_dir: str) -> None:
        self.tracer = tracing.Tracer() if trace else None
        self.out_dir = out_dir
        self._trace_file = os.path.join(out_dir, "child-trace.json")
        # The workload reaches generate_input through the module, so that a
        # traced run times input generation as part of set-up.
        if self.tracer:
            self.tracer.install()
        self.wl = WORKLOADS[workload](seed, polargrass, split_lplus)
        self.setup_trace = dict(self.tracer.self_s) if self.tracer else {}
        if self.tracer:
            self.tracer.uninstall()
            self.tracer.reset()
        if not self.wl.in_process:
            os.makedirs(out_dir, exist_ok=True)
            for i, op in enumerate(self.wl.ops):
                if op.argv is None:
                    path = os.path.join(out_dir, f"input-{i}.json")
                    with open(path, "w") as fh:
                        fh.write(op.text)
                    op.argv = [op.verb, "--input", path]
        self.failed = 0
        self.attempted = 0
        self.failed_ops: set = set()

    # -- one operation ------------------------------------------------------

    def run_in_process(self, op, traced: bool):
        t = self.tracer if traced else None
        start = time.perf_counter()
        if t:
            obj = t.span("serialize.parse", json.loads, op.text)
        else:
            obj = json.loads(op.text)
        report, code = cli.run_verb(op.verb, obj, OPTS)
        text = cli.se.dumps_canonical(report)
        return time.perf_counter() - start, code, text

    def run_cli(self, op, traced: bool):
        cmd = [sys.executable, "-m", "polargrass.cli"]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), self._trace_file]
        start = time.perf_counter()
        proc = subprocess.run(cmd + op.argv, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if traced:
            with open(self._trace_file) as fh:
                child = json.load(fh)
            for key, value in child["self_s"].items():
                self.tracer.self_s[key] += value
            for key, value in child["counts"].items():
                self.tracer.counts[key] += value
        return elapsed, proc.returncode, proc.stdout

    def run_op(self, op, traced: bool):
        if self.wl.in_process:
            elapsed, code, text = self.run_in_process(op, traced)
        else:
            elapsed, code, text = self.run_cli(op, traced)
        self.attempted += 1
        # Exit 0 means a passed check with no error, so only rejections
        # and unexpected codes need their report read here.
        if code != (2 if op.expect else 0) or (op.expect and self._error(text) != op.expect):
            self.failed += 1
            self.failed_ops.add(op.name)
            print(f"FAILED {op.name}: exit {code}, error {self._error(text)}", file=sys.stderr)
        return elapsed, text

    @staticmethod
    def _error(text: str):
        try:
            return json.loads(text).get("error")
        except ValueError:
            return "unreadable output"

    # -- the run ------------------------------------------------------------

    def warm_up(self) -> None:
        for op in self.wl.warmup:
            self.run_op(op, traced=False)
        self.failed = self.attempted = 0
        self.failed_ops.clear()

    def measure(self, seconds: float) -> dict:
        times = {op.name: [] for op in self.wl.ops}
        rounds = {False: [], True: []}
        first: dict = {}
        others: dict = {}
        begin = time.perf_counter()
        while len(rounds[False]) + len(rounds[True]) < 2 or time.perf_counter() - begin < seconds:
            # With tracing, rounds alternate untraced and traced.
            traced = self.tracer is not None and len(rounds[False]) > len(rounds[True])
            if traced:
                self.tracer.install()
            start = time.perf_counter()
            for op in self.wl.ops:
                elapsed, text = self.run_op(op, traced)
                times[op.name].append(elapsed)
                if op.name not in first:
                    first[op.name] = text
                elif text != first[op.name]:
                    others.setdefault(op.name, set()).add(text)
            rounds[traced].append(time.perf_counter() - start)
            if traced:
                self.tracer.uninstall()
        if self.wl.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        problems = self.check(first, others)
        return {
            "problems": problems,
            "times": times,
            "rounds": rounds,
            "peak_rss_mb": peak_kb / 1024.0,
        }

    def check(self, first: dict, others: dict) -> list:
        """Check every distinct output of every operation that did not fail."""
        problems = []
        for op in self.wl.ops:
            if op.name in self.failed_ops:
                continue
            texts = [first[op.name]] + sorted(others.get(op.name, ()))
            if op.verb == "report-suite" and len(texts) > 1:
                problems.append(f"{op.name}: suite output differs between rounds")
            for text in texts:
                try:
                    rep = json.loads(text)
                except ValueError:
                    problems.append(f"{op.name}: output is not JSON")
                    continue
                problems += [f"{op.name}: {p}" for p in op.check(rep, split_lplus)]
        # The Fock operators behind fock-car, against Jordan-Wigner.
        for op in self.wl.ops:
            if op.verb == "fock-car":
                rep = build_fock(fermion_polarization(op.inp["cutoff"]))
                problems += [f"{op.name}: {p}" for p in checks.fock_creation(rep.creation)]
        return problems


def metrics(result: dict, largest: str) -> dict:
    per_op = [statistics.median(v) for v in result["times"].values()]
    untraced = result["rounds"][False]
    return {
        "round_s": statistics.median(untraced),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_largest_ms": 1e3 * statistics.median(result["times"][largest]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_metrics(runner: Runner, result: dict) -> dict:
    t = runner.tracer
    traced = result["rounds"][True]
    n = len(traced)
    out = {f"{name}.self_ms": 1e3 * t.self_s.get(name, 0.0) / n for name in tracing.SELF_MS}
    out["sampling.generate_input.self_ms"] = 1e3 * runner.setup_trace.get(
        "sampling.generate_input", 0.0)
    for name in tracing.COUNTED:
        out[name] = t.counts.get(name, 0) / n
    covered = sum(t.self_s.values())
    out["unattributed.self_ms"] = 1e3 * (sum(traced) - covered) / n
    out["trace.overhead"] = statistics.median(traced) / statistics.median(result["rounds"][False])
    return out


def main() -> int:
    workload, seed, trace, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    runner = Runner(workload, seed, trace, out_dir)
    runner.warm_up()
    print("READY", flush=True)
    command = sys.stdin.readline().strip()
    if command == "exit":
        return 0
    result = runner.measure(float(command))
    for p in result["problems"]:
        print("CHECK " + p, file=sys.stderr)
    values = layer_metrics(runner, result) if trace else metrics(result, runner.wl.largest)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "values": values,
        "samples": result["times"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
