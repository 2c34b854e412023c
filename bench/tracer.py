"""Spans around the calls into polargrass's public functions.

The tracer lives entirely in the benchmark: it replaces each traced
function by a wrapper on every module attribute that holds it (``cli``
imports ``grunsky``, ``build_fock`` and ``find_chart`` by name, several
modules import ``smallest_singular_value`` by name), and on the class for
methods, so no caller bypasses it.  The program's source is not touched.

A span's self time is its duration minus the time of the spans it
encloses, so the self times of one round add up to the time that some
span covers; the rest of the round is ``unattributed``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  An attribute "Class.method" wraps the
# method on the class.  Spans named alike add up into one layer metric.
SPANS = [
    ("polargrass.cli", "run_verb", "cli.run_verb"),
    ("polargrass.serialize", "dumps_canonical", "serialize.emit"),
    ("polargrass.serialize", "load_json", "serialize.parse"),
    ("polargrass.serialize", "matrix_from_json", "serialize.parse"),
    ("polargrass.serialize", "form_from_json", "serialize.parse"),
    ("polargrass.serialize", "structure_from_json", "serialize.parse"),
    ("polargrass.serialize", "triple_from_json", "serialize.parse"),
    ("polargrass.serialize", "frame_from_json", "serialize.parse"),
    ("polargrass.serialize", "disk_point_from_json", "serialize.parse"),
    ("polargrass.serialize", "chart_index_from_json", "serialize.parse"),
    ("polargrass.circle", "composition_operator", "circle.composition_operator"),
    ("polargrass.circle", "composition_blocks", "circle.composition_blocks"),
    ("polargrass.circle", "grunsky", "circle.grunsky"),
    ("polargrass.siegel", "SiegelPoint.__post_init__", "siegel.SiegelPoint"),
    ("polargrass.siegel", "BlockSymplectic.__init__", "siegel.BlockSymplectic"),
    ("polargrass.siegel", "mobius_act", "siegel.mobius_act"),
    ("polargrass.fock", "build_fock", "fock.build_fock"),
    ("polargrass.fock", "FockRep.represent", "fock.represent"),
    ("polargrass.fock", "car_check", "fock.car_check"),
    ("polargrass.fock", "adjoint_residual", "fock.adjoint_residual"),
    ("polargrass.fock", "vacuum_cyclicity_rank", "fock.vacuum_cyclicity_rank"),
    ("polargrass.orthograss", "find_chart", "orthograss.find_chart"),
    ("polargrass.orthograss", "transition", "orthograss.transition"),
    ("polargrass.triples", "verify_triple", "triples.verify_triple"),
    ("polargrass.triples", "complete_from_g_J", "triples.complete"),
    ("polargrass.triples", "complete_from_g_omega", "triples.complete"),
    ("polargrass.triples", "complete_from_J_omega", "triples.complete"),
    ("polargrass.polarization", "complexify", "polarization.complexify"),
    ("polargrass.polarization", "eigensplit", "polarization.eigensplit"),
    ("polargrass.sampling", "generate_input", "sampling.generate_input"),
]

# Functions only counted, not timed: they are called too often for a span.
COUNTS = [
    ("polargrass.linalg", "smallest_singular_value", "linalg.svd.calls"),
    ("polargrass.linalg", "op_norm", "linalg.svd.calls"),
]

# Per-layer metrics that are self times (ms) and counts, in report order.
SELF_MS = sorted({name for _, _, name in SPANS})
COUNTED = ["fock.represent.calls", "linalg.svd.calls", "orthograss.find_chart.steps",
           "serialize.emit.bytes"]


class Tracer:
    """Accumulates span self times (s) and counts until :meth:`reset`."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []  # child time of each open span
        self._undo: list = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        start = time.perf_counter()
        self._stack.append(0.0)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            self.self_s[name] += dur - self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
        self._observe(name, result)
        return result

    def _observe(self, name: str, result) -> None:
        if name == "serialize.emit":
            self.counts["serialize.emit.bytes"] += len(result)
        elif name == "fock.represent":
            self.counts["fock.represent.calls"] += 1
        elif name == "orthograss.find_chart":
            self.counts["orthograss.find_chart.steps"] += len(result.kernel_dims) - 1

    def _wrap(self, name: str, fn, timed: bool):
        if timed:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target on every name it is looked up by."""
        for mod_name, _, _ in SPANS + COUNTS:
            importlib.import_module(mod_name)
        modules = [m for key, m in sys.modules.items()
                   if (key == "polargrass" or key.startswith("polargrass.")) and m is not None]
        for (mod_name, attr, name), timed in (
            [(t, True) for t in SPANS] + [(t, False) for t in COUNTS]
        ):
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(name, vars(cls)[meth], timed))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, timed)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
