"""Span tracer that wraps the public functions of each artifact layer.

The library is not modified: `install` replaces each traced function at
every module binding that holds it (cli and asymptotics import names
directly, so patching only the defining module would miss their calls).
A span records name, start, end and parent; a layer's self time is its
spans' duration minus the time covered by their child spans. Spans stay in
memory and are reduced to per-layer figures when the command returns.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, defining module, attribute). The three cmd_* functions share
# the span name "cli.cmd".
TRACED_FUNCTIONS = (
    ("cli.load_job_config", "artifact.cli", "load_job_config"),
    ("cli.cmd", "artifact.cli", "cmd_analyze"),
    ("cli.cmd", "artifact.cli", "cmd_simulate"),
    ("cli.cmd", "artifact.cli", "cmd_verify"),
    ("linalg.spd_factorize", "artifact.linalg", "spd_factorize"),
    ("linalg.solve_spd", "artifact.linalg", "solve_spd"),
    ("gaussian.upsilon", "artifact.gaussian", "upsilon"),
    ("gaussian.orthant", "artifact.gaussian", "orthant_probability"),
    ("asymptotics.cone_analysis", "artifact.asymptotics", "cone_analysis"),
    ("asymptotics.asymptotic_estimate", "artifact.asymptotics", "asymptotic_estimate"),
    ("asymptotics.subset_coefficients", "artifact.asymptotics", "subset_coefficients"),
    ("simulate.gaussian_sample", "artifact.simulate", "_gaussian_sample"),
    ("simulate.sample_rvgc", "artifact.simulate", "sample_rvgc"),
    ("simulate.derived_series", "artifact.simulate", "derived_series"),
    ("simulate.hill_estimator", "artifact.simulate", "hill_estimator"),
    ("simulate.conditional_curves", "artifact.simulate", "conditional_exceedance_curves"),
    ("simulate.verify_asymptotics", "artifact.simulate", "verify_asymptotics"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: dict[str, float] = defaultdict(float)
        self.qp_subsets: set = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # Counters taken from the arguments and results at the layer boundary.

    def _qp_solve(self, args, result):
        self.qp_subsets.add(args[1].members)

    def _orthant(self, args, result):
        # OrthantEstimate.se is 0 exactly on the closed-form paths.
        if result.se > 0.0:
            self.counters["gaussian.orthant.qmc_calls"] += 1

    def _simulate_arrays(self, args, result):
        if isinstance(result, np.ndarray):
            self.counters["simulate.bytes_returned"] += result.nbytes

    def _conditional(self, args, result):
        self.counters["simulate.conditional_curves.cells"] += sum(
            len(curve.t_values) for curve in result
        )

    def _count(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced function at every artifact module binding."""
        import artifact.cli  # noqa: F401  (imports every layer)
        from artifact.qp import SubsetQpSolver

        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "artifact" or name.startswith("artifact.")
        ]
        hooks = {
            "gaussian.orthant": self._orthant,
            "simulate.conditional_curves": self._conditional,
        }
        for span, module_name, attr in TRACED_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            hook = hooks.get(span)
            if hook is None and span.startswith("simulate."):
                hook = self._simulate_arrays
            traced = self.wrap(span, original, hook)
            for module in modules:
                bound = [key for key, value in vars(module).items() if value is original]
                for key in bound:
                    setattr(module, key, traced)
        SubsetQpSolver.solve = self.wrap("qp.solve", SubsetQpSolver.solve, self._qp_solve)
        SubsetQpSolver.__init__ = self._count("qp.solvers_built", SubsetQpSolver.__init__)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds; plus counters."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers: dict[str, dict] = {}
        for (name, start, end, parent), child_time in zip(self.spans, covered):
            entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time
        counters = dict(self.counters)
        counters["qp.solve.distinct"] = len(self.qp_subsets)
        return {"layers": layers, "counters": counters}
