"""Span tracer for nctorus, installed from outside the package.

`install()` wraps every public function of the traced nctorus modules and
re-binds each wrapper under every name that pointed at the original, in
every nctorus module.  That covers module-qualified calls (`lap.spectrum`)
as well as names bound by `from .x import f`, and leaves the package
sources untouched.

Spans are aggregated in memory per function name (`<module>.<function>`):
calls, inclusive seconds of the outermost active span of that name, self
seconds (inclusive minus direct child spans), and a few counters computed
from arguments and results.  The counters are computed, not measured:
they are functions of the inputs and repeat exactly for the same code.

The tracer's own cost is the time spent in its counters (`counter_s`, timed
per call) plus the calls times the cost of one wrapper, which `wrapper_cost`
measures on a function that does nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = (
    "algebra", "calculus", "metrics", "forms", "laplacian", "oracle", "io", "sampling",
)


class _Frame:
    __slots__ = ("start", "child_s", "products")

    def __init__(self, start):
        self.start = start
        self.child_s = 0.0
        self.products = 0  # direct algebra.multiply children


def _box_dim(x, box):
    """Dimension m * |box| of the compression of an element or m x m matrix."""
    return getattr(x, "m", 1) * box.size


# Counters computed from a call's bound arguments `a`, result and frame.  Keys
# are added to the function's stats; ratios are formed from them in
# `layer_value`.  A counter that cannot derive its count adds to "miscounted".
def _multiply(stats, a, out, frame):
    u, v = a["u"], a["v"]
    nnz = int((u.table != 0).sum())
    stats["modes"] += nnz
    stats["cmacs"] += nnz * v.table.size
    n = u.geometry.n
    stats["computed_modes"] += (2 * (u.box.radius + v.box.radius) + 1) ** n
    stats["kept_modes"] += out.table.size


def _compress(stats, a, out, frame):
    d = out.matrix.shape[0]
    stats["dim_max"] = max(stats["dim_max"], d)
    stats["bytes"] += 16 * d * d


def _functional_calculus(stats, a, out, frame):
    x = a["x"]
    d = _box_dim(x, a["box"])
    stats["dim3"] += d**3
    stats["cols_read"] += getattr(x, "m", 1)
    stats["eigvecs"] += d


def _spectral_bounds(stats, a, out, frame):
    stats["dim3"] += _box_dim(a["x"], a["box"]) ** 3


def _exp_series(stats, a, out, frame):
    stats["terms"] += frame.products


def _refine_inverse_sqrt(stats, a, out, frame):
    # an iteration costs two products for the residual and one for the update,
    # except the one that stops after its residual; the final residual check
    # adds two more: products = 3 * iterations + 1, or 3 * max_iter + 2 when
    # max_iter is hit.  Any other count means the routine's product structure
    # changed and the iterations cannot be recovered from it.
    p = frame.products
    if p >= 4 and p % 3 == 1:
        stats["iterations"] += (p - 1) // 3
    elif p == 3 * a["max_iter"] + 2:
        stats["iterations"] += a["max_iter"]
    else:
        stats["miscounted"] += 1


def _spectrum(stats, a, out, frame):
    stats["stable"] += out.stable_count()
    stats["eigenvalues"] += out.eigenvalues.size


_COUNTERS = {
    "algebra.multiply": _multiply,
    "algebra.exp_series": _exp_series,
    "calculus.compress": _compress,
    "calculus.functional_calculus": _functional_calculus,
    "calculus.spectral_bounds": _spectral_bounds,
    "calculus.refine_inverse_sqrt": _refine_inverse_sqrt,
    "laplacian.spectrum": _spectrum,
}

# per-layer stats that are ratios of two counters
RATIOS = {
    "kept_ratio": ("kept_modes", "computed_modes"),
    "cols_ratio": ("cols_read", "eigvecs"),
    "stable_ratio": ("stable", "eigenvalues"),
}
# per-layer stats combined across processes by max instead of sum
MAXIMA = ("dim_max",)


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []
        self._active = {}  # name -> nesting depth, for outermost-only inclusive time

    def _new_stats(self):
        return {"calls": 0, "s": 0.0, "self_s": 0.0, "modes": 0, "cmacs": 0,
                "computed_modes": 0, "kept_modes": 0, "dim_max": 0, "bytes": 0,
                "dim3": 0, "cols_read": 0, "eigvecs": 0, "terms": 0,
                "iterations": 0, "stable": 0, "eigenvalues": 0, "miscounted": 0,
                "counter_s": 0.0}

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, self._new_stats())
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(clock())
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame.start
                stack.pop()
                active[name] -= 1
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame.child_s
                if not active[name]:
                    stats["s"] += elapsed
                if stack:
                    parent = stack[-1]
                    parent.child_s += elapsed
                    if name == "algebra.multiply":
                        parent.products += 1
            if counter is not None:
                c0 = clock()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(stats, bound.arguments, out, frame)
                stats["counter_s"] += clock() - c0
            return out

        return traced


def public_functions(module):
    """Functions defined in `module` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def install():
    """Wrap and re-bind the public functions of the traced modules."""
    tracer = Tracer()
    modules = [importlib.import_module(f"nctorus.{m}") for m in TRACED_MODULES]
    originals = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for name, fn in public_functions(module).items():
            originals[id(fn)] = tracer.wrap(f"{short}.{name}", fn)
    everything = [m for key, m in sys.modules.items()
                  if m is not None and (key == "nctorus" or key.startswith("nctorus."))]
    for module in everything:
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return tracer


def wrapper_cost():
    """Seconds a wrapper adds to one call, measured on a function that does nothing.

    Best of 5 timings of 10000 calls, wrapped minus plain.  Together with the
    time spent in counters ("counter_s") this is the tracer's cost.
    """
    calls, repeats = 10000, 5

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                fn()
            times.append(clock() - t0)
        return min(times)

    return max(0.0, (best(traced) - best(noop)) / calls)


def layer_value(stats, stat):
    """Value of one per-layer stat from a function's aggregated stats."""
    if stat in RATIOS:
        num, den = RATIOS[stat]
        return stats[num] / stats[den] if stats[den] else 0.0
    return stats[stat]


def merge(into, stats):
    """Add one process's stats for a function into a running total."""
    for key, value in stats.items():
        if key in MAXIMA:
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value
