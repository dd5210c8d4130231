"""Per-layer tracing from outside the package.

A traced operation runs inside :func:`installed`, which replaces each
traced function by a timing wrapper in every ``hoibc2d`` module namespace
that holds it (``assembly.hankel2_01_real``, ``analysis.lu_factor``, ...),
so calls between modules go through the wrapper too.  On exit every name
is restored.  Nothing under ``src/`` knows about tracing, and an untraced
run installs nothing.

Spans are kept in memory as ``[name, start, end, parent]`` lists; a span's
self time is its duration minus that of its direct children.  Counters
are computed from call arguments and results, so they repeat exactly
from run to run.
"""

import contextlib
import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("specfun", "impedance", "geometry", "assembly", "linsolve",
           "analysis", "cli")


def _hankel(c, a, _):
    x = np.asarray(a["x"])
    c["specfun.hankel_calls"] += 1
    c["specfun.hankel_points"] += x.size
    c["specfun.hankel_xmax"] = max(c["specfun.hankel_xmax"], float(x.max()))


def _blocks(c, a, _):
    c["assembly.pairs"] += a["contour"].n_elements ** 2


def _reduce(c, _, system):
    c["assembly.reduce_calls"] += 1
    c["assembly.system_n"] = max(c["assembly.system_n"],
                                 system.reduced_matrix.shape[0])


def _rhs(c, *_):
    c["assembly.rhs_calls"] += 1


def _factor(c, a, _):
    c["linsolve.factor_calls"] += 1
    c["linsolve.factor_flops"] += 8.0 * a["matrix"].shape[0] ** 3 / 3.0


def _solve(c, a, _):
    rhs = a["rhs"]
    c["linsolve.solve_calls"] += 1
    c["linsolve.solve_cols"] += 1 if rhs.ndim == 1 else rhs.shape[1]


def _far_field(c, a, _):
    c["analysis.far_field_calls"] += 1
    c["analysis.far_field_points"] += (a["contour"].n_elements * a["n_gl"]
                                       * len(a["angles_deg"]))


def _series(c, a, _):
    c["analysis.series_nmax"] = max(c["analysis.series_nmax"], a["spec"].n_max)


def _fit(c, *_):
    c["impedance.fit_calls"] += 1


# (defining module, function, counter): the public calls each layer serves
TARGETS = (
    ("specfun", "hankel2_01_real", _hankel),
    ("assembly", "assemble_blocks", _blocks),
    ("assembly", "build_reduced_system", _reduce),
    ("assembly", "assemble_rhs", _rhs),
    ("linsolve", "lu_factor", _factor),
    ("linsolve", "solve", _solve),
    ("analysis", "far_field", _far_field),
    ("analysis", "echo_width", None),
    ("analysis", "series_coated_cylinder", _series),
    ("impedance", "fit_coefficients", _fit),
    ("cli", "main", None),
)

# per-layer metric -> spans whose self time it sums
SELF_TIME = {
    "specfun.hankel_s": ("specfun.hankel2_01_real",),
    "assembly.blocks_self_s": ("assembly.assemble_blocks",),
    "assembly.reduce_self_s": ("assembly.build_reduced_system",),
    "assembly.rhs_s": ("assembly.assemble_rhs",),
    "linsolve.factor_s": ("linsolve.lu_factor",),
    "linsolve.solve_s": ("linsolve.solve",),
    "analysis.far_field_s": ("analysis.far_field", "analysis.echo_width"),
    "analysis.series_s": ("analysis.series_coated_cylinder",),
    "impedance.fit_s": ("impedance.fit_coefficients",),
    "cli.self_s": ("cli.main",),
}
# per-layer metric -> spans whose whole duration it sums
DURATION = {"assembly.blocks_s": ("assembly.assemble_blocks",)}

COUNTS = ("specfun.hankel_calls", "specfun.hankel_points",
          "specfun.hankel_xmax", "assembly.pairs", "assembly.reduce_calls",
          "assembly.system_n", "assembly.rhs_calls", "linsolve.factor_calls",
          "linsolve.factor_flops", "linsolve.solve_calls",
          "linsolve.solve_cols", "analysis.far_field_calls",
          "analysis.far_field_points", "analysis.series_nmax",
          "impedance.fit_calls")


class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open = []

    def wrap(self, name, fn, counter):
        sig = inspect.signature(fn)
        spans, stack, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(counts, bound.arguments, result)
            return result

        traced.traced_span = name
        return traced

    def layer_metrics(self):
        """Self times, durations and counts of this operation's spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        own, total = {}, {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            own[name] = own.get(name, 0.0) + (t1 - t0 - c)
            total[name] = total.get(name, 0.0) + (t1 - t0)
        out = {m: sum(own.get(s, 0.0) for s in names)
               for m, names in SELF_TIME.items()}
        out.update({m: sum(total.get(s, 0.0) for s in names)
                    for m, names in DURATION.items()})
        out.update(self.counts)
        return out

    def top_level_seconds(self):
        return sum(t1 - t0 for _, t0, t1, parent in self.spans
                   if parent is None)


def _modules():
    return [importlib.import_module(f"hoibc2d.{m}") for m in MODULES]


@contextlib.contextmanager
def installed(tracer):
    """Route every traced call through ``tracer`` until the block exits."""
    modules = _modules()
    replaced = []
    try:
        for home, name, counter in TARGETS:
            fn = getattr(importlib.import_module(f"hoibc2d.{home}"), name)
            wrapper = tracer.wrap(f"{home}.{name}", fn, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(replaced):
            setattr(mod, attr, fn)


def installed_wrappers():
    """(module, name) of every traced wrapper now bound in the package."""
    return [(mod.__name__, attr) for mod in _modules()
            for attr, value in vars(mod).items()
            if hasattr(value, "traced_span")]
