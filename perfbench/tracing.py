"""Outside-in tracing of monodromy_lab's public functions.

The package is not modified.  `installed(tracer)` replaces each traced
function at every module attribute bound to it (modules import by name, so
`monodromy.quantize` and `weyl.quantize` are separate bindings of one
function) and restores the originals on exit.  Each call records a span
(name, start, end, parent) in memory; counters derived from call arguments
or results are recorded at the same boundary.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

PACKAGE = "monodromy_lab"

# module -> public functions wrapped in a traced run
LAYERS = {
    "weyl": ("quantize", "op_exponential", "microlocal_cutoff", "cutoff_range"),
    "monodromy": ("contraction_sweep", "conjugated_contraction",
                  "unconjugated_gap", "build_hyperbolic_monodromy",
                  "unitarity_defect", "escape_weight", "restricted_norm",
                  "restricted_gap", "rotation_generator"),
    "quasimode": ("exact_model_ladder", "perturbed_ladder",
                  "residual_certify", "hermite_mode"),
    "geodesic": ("integrate", "poincare_linearization"),
    "symplectic": ("classify_spectrum", "build_quadratic_hamiltonian"),
    "escape": ("verify_positivity",),
    "serialize": ("write_csv", "write_manifest"),
}

# root span around each CLI invocation; its self time is the command's
# work outside every layer span
CLI_SPAN = "cli"


def _count_integrate(counts, bound, result):
    steps = int(round(bound.arguments["t_final"] / bound.arguments["step"]))
    key = "rk4_steps" if bound.arguments["tangent0"] is None else "tangent_steps"
    counts[f"geodesic.{key}"] += steps


def _count_entries(counts, bound, result):
    counts["quasimode.entries"] += result.count


def _count_samples(counts, bound, result):
    counts["escape.samples"] += bound.arguments["samples"]


def _count_csv_bytes(counts, bound, result):
    counts["serialize.bytes_written"] += Path(bound.arguments["path"]).stat().st_size


def _count_manifest_bytes(counts, bound, result):
    counts["serialize.bytes_written"] += Path(result).stat().st_size


COUNTERS = {
    "geodesic.integrate": _count_integrate,
    "quasimode.exact_model_ladder": _count_entries,
    "quasimode.perturbed_ladder": _count_entries,
    "escape.verify_positivity": _count_samples,
    "serialize.write_csv": _count_csv_bytes,
    "serialize.write_manifest": _count_manifest_bytes,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(int)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total seconds `s`, and `self_s`, the total
        minus the time covered by direct child spans; plus the counters."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child_time[sp.parent] += sp.end - sp.start
        out = defaultdict(float)
        for sp, inner in zip(self.spans, child_time):
            out[f"{sp.name}.calls"] += 1
            out[f"{sp.name}.s"] += sp.end - sp.start
            out[f"{sp.name}.self_s"] += sp.end - sp.start - inner
        out.update(self.counts)
        return dict(out)


def binding_sites(fn) -> list:
    """Every (module, attribute) of the loaded package bound to `fn`."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE
                               or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                sites.append((mod, attr))
    return sites


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every LAYERS function at all of its binding sites."""
    restore = []
    try:
        for module, names in LAYERS.items():
            mod = sys.modules[f"{PACKAGE}.{module}"]
            for name in names:
                orig = getattr(mod, name)
                traced = tracer.wrap(f"{module}.{name}", orig)
                for site, attr in binding_sites(orig):
                    setattr(site, attr, traced)
                    restore.append((site, attr, orig))
        yield tracer
    finally:
        for site, attr, orig in reversed(restore):
            setattr(site, attr, orig)
