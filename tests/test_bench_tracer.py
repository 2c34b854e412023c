"""The benchmark's tracer still wraps every function it names."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib
import sys

sys.path.insert(0, sys.argv[1])
import tracer

import numpy as np
from polargrass import orthograss
from polargrass.polarization import complexify, eigensplit
from polargrass.triples import standard_triple
from polargrass.linalg import Frame


def resolve(mod_name, attr):
    owner = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = vars(owner)[cls_name]
    return vars(owner)[attr]


targets = tracer.SPANS + tracer.COUNTS
named = {"SiegelPoint.__post_init__", "BlockSymplectic.__init__", "mobius_act", "find_chart",
         "transition"}
assert named <= {attr for _, attr, _ in targets}
t = tracer.Tracer()
t.install()
for mod_name, attr, _ in targets:
    assert hasattr(resolve(mod_name, attr), "__wrapped__"), (mod_name, attr)
split = eigensplit(complexify(standard_triple(3)))
orthograss.find_chart(Frame.from_columns(np.conj(split.lplus)), split)
assert t.counts["orthograss.find_chart.steps"] == 3, dict(t.counts)
t.uninstall()
for mod_name, attr, _ in targets:
    assert not hasattr(resolve(mod_name, attr), "__wrapped__"), (mod_name, attr)
print("ok")
"""


def test_tracer_installs_and_uninstalls():
    # a fresh interpreter, so that no other test's imports or patches count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
