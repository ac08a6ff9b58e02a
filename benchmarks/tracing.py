"""Spans around the public functions of bqem's layers, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper, in every bqem module namespace (and module-level dict) that
binds it, so that calls inside the package such as ``chiral_time`` calling
``grids.diff`` are seen.  The linear-algebra calls of ``solve_dense`` are
timed as ``bqem.scattering`` sees them, through stand-ins for its ``np`` and
``scipy`` names.  Spans (name, start, end, parent, pass) stay in memory and
are written out once at the end; ``pass_metrics`` derives the per-layer
figures of one pass from them.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("cli", "scattering", "kernels", "grids", "chiral_time", "diffops", "inhomog", "suites")
PEAK_SPAN = "chiral_time.green_residual"
MB = 1e6


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Values recorded on a span besides its times: computed, not measured.
MEASURES = {
    "kernels.fundamental_solution": lambda a, k, r: math.prod(np.shape(_arg(a, k, 1, "x"))[:-1]),
    "chiral_time.bessel_j": lambda a, k, r: math.prod(np.shape(_arg(a, k, 1, "z"))),
    "grids.diff": lambda a, k, r: r.nbytes,
    "scattering.solve_dense": lambda a, k, r: np.shape(_arg(a, k, 0, "matrix")),
}


class _Namespace:
    """A module stand-in: ``overrides`` first, everything else from ``target``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, pass, value]
        self._stack: list[int] = []
        self.pass_no = -1
        self.track_peak = False
        self.peaks: list[float] = []

    def wrap(self, name: str, fn):
        measure = MEASURES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            peak = self.track_peak and name == PEAK_SPAN
            if peak:
                tracemalloc.start()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_no, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if peak:
                    self.peaks.append(tracemalloc.get_traced_memory()[1] / MB)
                    tracemalloc.stop()
            if measure is not None:
                span[5] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import scipy.linalg

        import bqem

        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"bqem.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bqem" or mod_name.startswith("bqem.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, attr, originals[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if id(value) in originals:
                            obj[key] = originals[id(value)]
        scattering = bqem.scattering
        scattering.scipy = _Namespace(
            scipy, linalg=_Namespace(scipy.linalg, lu_factor=self.wrap("scattering.factor", scipy.linalg.lu_factor))
        )
        scattering.np = _Namespace(
            np,
            linalg=_Namespace(
                np.linalg,
                cond=self.wrap("scattering.cond", np.linalg.cond),
                lstsq=self.wrap("scattering.lstsq", np.linalg.lstsq),
            ),
        )

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass", "value"], "spans": self.spans}, fh)


def pass_metrics(spans: list[list], pass_no: int) -> dict[str, float]:
    """Per-layer figures of one pass, from its spans."""
    idx = [i for i, s in enumerate(spans) if s[4] == pass_no]
    child_time = {i: 0.0 for i in idx}
    for i in idx:
        parent = spans[i][3]
        if parent in child_time:
            child_time[parent] += spans[i][2] - spans[i][1]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def nested(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    def total(names, self_time=False, outermost=False):
        """Summed durations (or self times); ``outermost`` skips calls nested in another of ``names``."""
        out = 0.0
        for i in idx:
            if spans[i][0] in names and not (outermost and nested(i, names)):
                out += dur(i) - child_time[i] if self_time else dur(i)
        return out

    def named(name):
        return [i for i in idx if spans[i][0] == name]

    solves = named("scattering.solve_dense")
    diffs = named("grids.diff")
    cli_names = {s[0] for s in (spans[i] for i in idx) if s[0].startswith("cli.")}
    diffops_residuals = {spans[i][0] for i in idx if spans[i][0].startswith("diffops.") and spans[i][0].endswith("_residual")}
    inhomog_residuals = {"inhomog.maxwell_residuals", "inhomog.quaternionic_residual",
                         "inhomog.split_residuals", "inhomog.static_residuals"}
    m = {
        "cli.self_s": total(cli_names, self_time=True),
        "scattering.assemble_system_s": total({"scattering.assemble_system"}),
        "scattering.solve_dense_s": total({"scattering.solve_dense"}),
        "scattering.factor_s": total({"scattering.factor"}),
        "scattering.cond_s": total({"scattering.cond"}),
        "scattering.lstsq_s": total({"scattering.lstsq"}),
        "scattering.evaluate_fields_s": total({"scattering.evaluate_fields"}),
        "scattering.solves": len(solves),
        "scattering.unknowns": sum(spans[i][5][1] for i in solves),
        "scattering.matrix_mb": max((16 * spans[i][5][0] * spans[i][5][1] / MB for i in solves), default=0.0),
        "kernels.fundamental_solution_s": total({"kernels.fundamental_solution"}),
        "kernels.fundamental_solution.points": sum(spans[i][5] for i in named("kernels.fundamental_solution")),
        "kernels.dipole_field_s": total({"kernels.dipole_field"}),
        "grids.diff_s": total({"grids.diff"}, self_time=True),
        "grids.dirac_s": total({"grids.dirac"}, self_time=True),
        "grids.max_abs_interior_s": total({"grids.max_abs_interior"}, self_time=True),
        "grids.diff.calls": len(diffs),
        "grids.diff.mb": sum(spans[i][5] for i in diffs) / MB,
        "chiral_time.green_function_s": total({"chiral_time.green_function"}, self_time=True),
        "chiral_time.apply_M_s": total({"chiral_time.apply_M"}, self_time=True),
        "chiral_time.green_residual_s": total({"chiral_time.green_residual"}, self_time=True),
        "chiral_time.bessel_j_s": total({"chiral_time.bessel_j"}),
        "chiral_time.bessel_j.points": sum(spans[i][5] for i in named("chiral_time.bessel_j")),
        "diffops.residuals_s": total(diffops_residuals, outermost=True),
        "inhomog.manufactured_solution_s": total({"inhomog.manufactured_solution"}),
        "inhomog.medium_from_expressions_s": total({"inhomog.medium_from_expressions"}),
        "inhomog.residuals_s": total(inhomog_residuals, outermost=True),
    }
    for suite in ("algebra", "kernels", "factorizations", "green", "inhomog"):
        m[f"suites.{suite}_s"] = total({f"suites.suite_{suite}"})
    return m
