"""Per-layer figures of traced runs over several seeds, as one table.

    python3 bench/layers.py --runs 5

Run from the root of a checkout.  For each workload it runs the traced
command (``run.py --trace 1``) on seeds 1 to ``--runs``, each run
lasting ``run_seconds`` of BENCHMARK.json, and prints every per-layer
metric's median and quartiles over the runs, one column per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-cold", "grunsky-sweep", "fock-sweep", "geometry-batch")


def traced_values(workload: str, seconds, seeds) -> dict:
    values: dict = {}
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed}: failed operations or checks:\n"
                             f"{proc.stderr[-3000:]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        print(f"  {workload} seed {seed} done", flush=True)
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    table = {w: traced_values(w, seconds, range(1, args.runs + 1)) for w in WORKLOADS}
    print("\n| per-layer metric | unit | " + " | ".join(f"`{w}`" for w in WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name, first in table[WORKLOADS[0]].items():
        cells = []
        for w in WORKLOADS:
            q1, med, q3 = statistics.quantiles(table[w][name]["values"], n=4)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"| `{name}` | {first['unit']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
