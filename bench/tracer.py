"""Outside-in tracer: spans around calls into zenogate's public functions.

The wrappers live here, not in zenogate.  Each one is installed in every
``zenogate.*`` namespace that binds the wrapped function, because the
modules import each other's names (``from .fock import matrix_exponential``)
and a patch on the defining module alone would miss those calls.  Spans
stay in memory as (name, start, end, parent) and are written out once the
run ends; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

# layer -> public functions wrapped in that layer (zenogate.<layer>.<function>).
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "fock": ("enumerate_basis", "coupling_hamiltonian", "creation_matrix", "matrix_exponential"),
    "dynamics": ("evolve_state", "project_no_double_occupancy", "evolve_density_matrix", "absorption_propagator"),
    "gate": ("run_discrete_protocol", "run_absorption_protocol", "error_curve", "extract_gate", "rabi_curve", "hom_curve"),
    "fermions": ("time_averaged_product", "anticommutator_report", "compare_to_zeno_photons", "evolve_fermions"),
    "absorption": ("load_params_file", "two_photon_rate"),
    "encoding": ("monte_carlo_logical_failure",),
}

# Work counts derived from call arguments rather than measured.
COMPUTED_COUNTS = {
    "encoding.monte_carlo_logical_failure": ("encoding.draws_computed", lambda args: 6 * args["trials"]),
}


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]


class Tracer:
    """Records one span per wrapped call; single-threaded by design."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COMPUTED_COUNTS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(signature.bind(*args, **kwargs).arguments)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    @contextlib.contextmanager
    def installed(self, package: str = "zenogate"):
        """Patch every binding of each wrapped function in package.*; restore on exit."""
        restore = []
        for name in span_names():
            layer, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"{package}.{layer}"), fn_name)
            wrapper = self.wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        restore.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time in s)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - children)
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")
