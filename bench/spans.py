"""Span tracing of gqc from outside the package.

``Tracer.install`` wraps the public functions of every gqc module (plus a
few named private ones that carry a layer's work), rebinds every module
attribute and dispatch-table entry that referred to the original function
(so ``from .solver import newton_solve`` copies are traced too), and wraps
``scipy.sparse.linalg.splu`` so that each factorization and each
``SuperLU.solve`` gets its own span, and ``pathlib.Path.write_text``, which
the CLI uses for ``branch.csv``. ``uninstall`` restores every patched
attribute.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists, where
``parent`` indexes the enclosing span (-1 at top level) and ``op`` is the
benchmark operation that was running. ``layer_metrics`` reduces them to
counts, busy times (time covered by the outermost span of a group) and
self times (span minus child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pathlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("grid", "expressions", "problem", "conditions", "transform",
           "solver", "continuation", "cli")

# private functions that carry a layer's work and are named by a metric
PRIVATE = {
    "continuation": ("_corrector",),
    "cli": ("_write_json",),
    "transform": ("_minimize", "_polish_el"),
}

METHODS = {
    ("grid", "DiscreteOperators"): ("lap_solver", "weighted_stiffness"),
}

CLASSMETHODS = {
    ("problem", "CoefficientSpec"): ("from_file",),
}


def _on_newton(tracer, result):
    _, report = result
    tracer.counts["solver.newton_iters"] += report.iterations
    tracer.counts["solver.newton_failed"] += 0 if report.converged else 1


def _on_cascade(tracer, result):
    _, _, attempts = result
    tracer.counts["solver.cascade_fallbacks"] += max(len(attempts) - 1, 0)


def _on_eigen(tracer, result):
    tracer.counts["conditions.eigen_iters"] += result.iterations


def _on_trace_branch(tracer, result):
    tracer.counts["continuation.points"] += len(result.points)
    # the first two points are seed solves, every later one a corrector success
    tracer.counts["continuation.accepted"] += max(len(result.points) - 2, 0)


RESULT_HOOKS = {
    "solver.newton_quasilinear": _on_newton,
    "solver.solve_cascade": _on_cascade,
    "conditions.first_eigen": _on_eigen,
    "continuation.trace_branch": _on_trace_branch,
}


class _TracedLU:
    """Proxy around a SuperLU object that gives each solve a span."""

    __slots__ = ("_lu", "_solve")

    def __init__(self, lu, solve):
        self._lu = lu
        self._solve = solve

    def solve(self, *args, **kwargs):
        return self._solve(self._lu.solve, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.lu_nnz: list[int] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _run(self, name, fn, args, kwargs):
        spans = self.spans
        idx = len(spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        hook = RESULT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer._run(name, fn, args, kwargs)
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def _splu(self, splu):
        tracer = self

        def solve(fn, *args, **kwargs):
            return tracer._run("lu.solve", fn, args, kwargs)

        @functools.wraps(splu)
        def traced(*args, **kwargs):
            lu = tracer._run("lu.factor", splu, args, kwargs)
            tracer.lu_nnz.append(int(lu.nnz))
            return _TracedLU(lu, solve)

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value, in_dict=False):
        old = owner[attr] if in_dict else getattr(owner, attr)
        self._patches.append((owner, attr, old, in_dict))
        if in_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self):
        import scipy.sparse.linalg as spla

        mods = {m: importlib.import_module(f"gqc.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                    continue
                wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for (short, cls_name), names in METHODS.items():
            cls = getattr(mods[short], cls_name)
            for attr in names:
                self._patch(cls, attr, self.wrap(f"{short}.{attr}", getattr(cls, attr)))
        for (short, cls_name), names in CLASSMETHODS.items():
            cls = getattr(mods[short], cls_name)
            for attr in names:
                fn = vars(cls)[attr].__func__
                self._patch(cls, attr, classmethod(self.wrap(f"{short}.{attr}", fn)))

        # rebind every reference to a wrapped function, including the copies
        # that `from .x import f` left in other modules and dispatch tables
        every = list(mods.values()) + [importlib.import_module("gqc")]
        for mod in every:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._patch(obj, key, wrapped[id(val)], in_dict=True)
        self._patch(spla, "splu", self._splu(spla.splu))
        # the CLI writes branch.csv inline; count it with the other artifacts
        self._patch(pathlib.Path, "write_text",
                    self.wrap("io.write_text", pathlib.Path.write_text))

    def uninstall(self):
        for owner, attr, old, in_dict in reversed(self._patches):
            if in_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def _inside(self, names) -> list[bool]:
        """For each span, whether an ancestor span has one of ``names``.

        Spans are appended when they start, so a parent always precedes its
        children and one forward pass suffices."""
        spans = self.spans
        inside = [False] * len(spans)
        for i, s in enumerate(spans):
            p = s[3]
            if p >= 0:
                inside[i] = inside[p] or spans[p][0] in names
        return inside

    def busy(self, *names):
        """Time covered by spans of ``names``, nested repeats counted once."""
        names = set(names)
        inside = self._inside(names)
        return sum(s[2] - s[1] for s, nested in zip(self.spans, inside)
                   if s[0] in names and not nested)

    def count(self, *names):
        names = set(names)
        return sum(1 for s in self.spans if s[0] in names)

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0].split(".", 1)[0]] += (s[2] - s[1]) - child[i]
        return out

    def layer_metrics(self, iterations: int) -> dict[str, tuple[float, str]]:
        """Per-layer numbers per traced iteration, as {name: (value, unit)}."""
        n = max(iterations, 1)
        c = self.counts
        correctors = self.count("continuation._corrector")
        # one bordered factorization per corrector iteration, failed
        # correctors included
        corrector_iters = sum(1 for s, nested in zip(self.spans,
                                                     self._inside({"continuation._corrector"}))
                              if nested and s[0] == "lu.factor")
        in_trace = sum(1 for s, nested in zip(self.spans,
                                              self._inside({"continuation.trace_branch"}))
                       if nested and s[0] == "continuation._corrector")
        selfs = self.self_times()
        m = {
            "grid.build_operators_s": (self.busy("grid.build_operators") / n, "s"),
            "grid.lap_factor_s": (self.busy("grid.lap_solver") / n, "s"),
            "grid.lu_count": (self.count("lu.factor") / n, "count"),
            "grid.lu_s": (self.busy("lu.factor") / n, "s"),
            "grid.lu_nnz": (statistics.fmean(self.lu_nnz) if self.lu_nnz else 0.0, "count"),
            "grid.lu_solve_count": (self.count("lu.solve") / n, "count"),
            "grid.lu_solve_s": (self.busy("lu.solve") / n, "s"),
            "problem.parse_s": (self.busy("problem.parse_coefficient",
                                          "problem.load_values_file",
                                          "problem.from_file") / n, "s"),
            "solver.newton_calls": (self.count("solver.newton_quasilinear") / n, "count"),
            "solver.newton_iters": (c["solver.newton_iters"] / n, "count"),
            "solver.newton_failed": (c["solver.newton_failed"] / n, "count"),
            "solver.newton_s": (self.busy("solver.newton_quasilinear") / n, "s"),
            "solver.jacobian_s": (self.busy("solver.quasilinear_jacobian") / n, "s"),
            "solver.residual_s": (self.busy("solver.quasilinear_residual",
                                            "solver.residual_scale") / n, "s"),
            "solver.cascade_fallbacks": (c["solver.cascade_fallbacks"] / n, "count"),
            "solver.enclosure_s": (self.busy("solver.monotone_enclosure") / n, "s"),
            "solver.multistart_s": (self.busy("solver.multi_start") / n, "s"),
            "transform.calls": (self.count("transform.solve_transformed") / n, "count"),
            "transform.solve_s": (self.busy("transform.solve_transformed") / n, "s"),
            "conditions.eigen_s": (self.busy("conditions.first_eigen") / n, "s"),
            "conditions.eigen_iters": (c["conditions.eigen_iters"] / n, "count"),
            "conditions.rayleigh_calls": (self.count("conditions.weighted_rayleigh_sup") / n,
                                          "count"),
            "conditions.rayleigh_s": (self.busy("conditions.weighted_rayleigh_sup") / n, "s"),
            "continuation.trace_s": (self.busy("continuation.trace_branch") / n, "s"),
            "continuation.points": (c["continuation.points"] / n, "count"),
            "continuation.corrector_calls": (correctors / n, "count"),
            "continuation.corrector_iters": (corrector_iters / n, "count"),
            "continuation.step_accept_ratio": (
                c["continuation.accepted"] / in_trace if in_trace else 0.0, "ratio"),
            "continuation.analyze_s": (self.busy("continuation.analyze_branch") / n, "s"),
            "continuation.locate_fold_s": (self.busy("continuation.locate_fold") / n, "s"),
            "cli.config_s": (self.busy("cli.load_config") / n, "s"),
            "cli.write_s": (self.busy("cli._write_json", "problem.save_values_file",
                                      "io.write_text") / n, "s"),
        }
        for layer in MODULES + ("lu",):
            m[f"{layer}.self_s"] = (selfs.get(layer, 0.0) / n, "s")
        m["trace.spans"] = (len(self.spans) / n, "count")
        return m
