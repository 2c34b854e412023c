"""Two sets of runs of one workload, with each metric's median and quartiles.

    python3 bench/steadiness.py --workload geometry-batch --runs 10

Run from the root of a checkout.  Each run gets its own seed (set one
uses seeds 1 to ``--runs``, set two the next ``--runs`` seeds), and each
run lasts ``run_seconds`` of BENCHMARK.json.  For
every metric it prints both sets' medians and quartiles, the spread
(quartile distance over median) of each set and the change of the second
median against the first; these figures set the bounds in
BENCHMARK.json.  It also pools the per-operation times of each set and
reports the highest percentile with at least ten samples beyond it.
The whole report is written to ``.bench_out/steadiness-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.getcwd(), ".bench_out")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples: list) -> dict:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in PERCENTILES:
        beyond = int(len(ordered) * (1.0 - p / 100.0))
        if beyond >= 10:
            return {"percentile": p, "ms": 1e3 * ordered[len(ordered) - beyond - 1],
                    "samples": len(ordered)}
    return {"percentile": None, "ms": None, "samples": len(ordered)}


def run_set(workload: str, seconds, seeds) -> dict:
    metrics: dict = {}
    failed_share = set()
    pooled: list = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"run with seed {seed} failed:\n{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: outputs failed their checks:\n{proc.stderr[-3000:]}")
        failed_share.add((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        with open(os.path.join(OUT, f"samples-{workload}-{seed}-0.json")) as fh:
            for times in json.load(fh).values():
                pooled += times
        print(f"  seed {seed}: " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    for m in metrics.values():
        q1, med, q3 = statistics.quantiles(m["values"], n=4)
        m.update(q1=q1, median=med, q3=q3, spread=(q3 - q1) / med)
    shares = {f / a for f, a in failed_share}
    return {"seeds": list(seeds), "metrics": metrics, "failed_shares": sorted(shares),
            "op_tail": tail(pooled)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    os.makedirs(OUT, exist_ok=True)
    sets = []
    for first in (1, args.runs + 1):
        print(f"set {len(sets) + 1}: seeds {first}..{first + args.runs - 1}", flush=True)
        sets.append(run_set(args.workload, seconds, range(first, first + args.runs)))
    print(f"\n| {args.workload} | unit | set 1: median [q1, q3], spread "
          "| set 2: median [q1, q3], spread | change |")
    print("|---|---|---|---|---|")
    for name, m1 in sets[0]["metrics"].items():
        m2 = sets[1]["metrics"][name]
        cells = [f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}], {100 * m['spread']:.1f} %"
                 for m in (m1, m2)]
        print(f"| {name} | {m1['unit']} | {cells[0]} | {cells[1]} | "
              f"{100 * (m2['median'] / m1['median'] - 1):+.1f} % |")
    for i, s in enumerate(sets):
        t = s["op_tail"]
        print(f"\nset {i + 1}: seeds {s['seeds'][0]}..{s['seeds'][-1]}, failed share "
              f"{s['failed_shares']}, per-op p{t['percentile']} = "
              f"{t['ms'] and round(t['ms'], 3)} ms over {t['samples']} calls")
    with open(os.path.join(OUT, f"steadiness-{args.workload}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seconds": seconds, "sets": sets}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
