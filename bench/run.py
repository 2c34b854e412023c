"""Run one benchmark workload and print its figures as one JSON line.

    python3 bench/run.py --workload grunsky-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its
``src``.  Each run starts ``COLD_STARTS`` workload processes one after
the other and times each from its start to its first timed operation
(``setup_s`` is their median); the last one goes on to measure.  Every
process runs with BLAS and OpenMP pinned to one thread, because on a
small shared machine OpenBLAS's extra threads make the small verbs
slower and far less steady (see README.md).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run.  This launcher imports no numpy itself.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
COLD_STARTS = 7
IMPORT_SAMPLES = 3
# The keys of workloads.WORKLOADS, listed here so that the launcher never imports numpy.
WORKLOADS = ("cli-cold", "grunsky-sweep", "fock-sweep", "geometry-batch")
UNITS = {"setup_s": "s", "round_s": "s", "op_p50_ms": "ms", "op_largest_ms": "ms",
         "peak_rss_mb": "MB"}
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name == "trace.overhead":
        return "ratio"
    return "bytes" if name.endswith(".bytes") else "count"


def import_times(env: dict) -> dict:
    """``cli.import_ms`` and ``cli.import_scipy_ms`` from ``-X importtime``."""
    total, scipy = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import polargrass.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"importing polargrass.cli failed:\n{proc.stderr[-2000:]}")
        cumulative = scipy_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                s_us, c_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue  # the header line
            module = fields[2].strip()
            if module == "polargrass.cli":
                cumulative = c_us
            if module == "scipy" or module.startswith("scipy."):
                scipy_us += s_us
        total.append(cumulative / 1e3)
        scipy.append(scipy_us / 1e3)
    return {"cli.import_ms": statistics.median(total),
            "cli.import_scipy_ms": statistics.median(scipy)}


def start_worker(args, env, out_dir):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
           str(args.trace), out_dir]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"workload process did not start (exit {proc.returncode})")
    return proc, setup


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "polargrass", "cli.py")):
        print(f"no polargrass source under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    # Compile the package once, so no cold start pays for writing bytecode.
    compileall.compile_dir(os.path.join(SRC, "polargrass"), quiet=1)
    env = pinned_env()
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)

    setups = []
    starts = 1 if args.trace else COLD_STARTS
    for i in range(starts):
        proc, setup = start_worker(args, env, out_dir)
        setups.append(setup)
        if i < starts - 1:
            proc.communicate("exit\n", timeout=60)
    stdout, _ = proc.communicate(f"{args.seconds}\n", timeout=170)
    shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"workload process failed with exit {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(stdout.strip().splitlines()[-1])
    values = result.pop("values")
    samples = result.pop("samples")
    with open(os.path.join(OUT, f"samples-{args.workload}-{args.seed}-{args.trace}.json"),
              "w") as fh:
        json.dump(samples, fh)
    if args.trace:
        values.update(import_times(env))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
    else:
        values["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
