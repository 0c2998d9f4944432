"""Outside-in per-layer tracer for the pillowcase package.

The tracer wraps public functions of the ``pillowcase`` modules from the
outside, so no source file changes.  Every wrapped call is a span; spans are
aggregated in memory per layer name (calls, inclusive time, self time and
outcome counts) and read out once, when the run ends.  Self time is a span's
duration minus the time its child spans cover, so the self times of nested
spans never double count and sum to at most the wall time of the outermost
span.

Modules import functions by name (``from .variety import solve_fiber``) and
keep aliases (``_kernels.g_scalar is _kernels._g_impl``), so the tracer wraps
each function object once and rebinds every attribute of every
``pillowcase.*`` module that refers to that object.  Functions reached
through module globals (``_g_impl`` inside the Newton loops) are then traced
too.

``quat`` is not wrapped: its functions are cheaper than a span, and their
cost shows up in the self time of ``words`` and ``projection``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _points(*arrays) -> int:
    """Number of points a broadcasting kernel evaluates for these arguments."""
    shapes = [a.shape for a in arrays if type(a) is np.ndarray]
    if not shapes:
        return 1
    if all(sh == shapes[0] for sh in shapes):
        return int(np.prod(shapes[0], dtype=np.int64))
    return int(np.prod(np.broadcast_shapes(*shapes), dtype=np.int64))


class Layer:
    """Aggregate of every span recorded under one layer name."""

    __slots__ = ("calls", "incl_s", "self_s", "depth", "counts")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0  # outermost spans only, so recursion is not doubled
        self.self_s = 0.0
        self.depth = 0
        self.counts = defaultdict(int)


class Tracer:
    """Wraps the functions of ``LAYERS`` and aggregates their spans."""

    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self._stack: list[float] = []  # child time covered, per open span
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer()
        return self.layers[name]

    def _wrap(self, fn, layer: Layer, outcome):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            layer.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                layer.depth -= 1
                covered = stack.pop()
                layer.calls += 1
                layer.self_s += dt - covered
                if not layer.depth:
                    layer.incl_s += dt
                if stack:
                    stack[-1] += dt
            if outcome is not None:
                outcome(self, layer, args, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every function in ``LAYERS`` and rebind all its aliases."""
        importlib.import_module("pillowcase.cli")  # loads every submodule
        wrappers: dict[int, object] = {}
        originals: dict[int, object] = {}
        for module, attr, name, outcome in LAYERS:
            fn = getattr(sys.modules[f"pillowcase.{module}"], attr)
            if getattr(fn, "__wrapped_by_tracer__", False):
                raise RuntimeError("tracer is already installed")
            if id(fn) in wrappers:
                raise ValueError(f"{module}.{attr} is listed twice")
            wrappers[id(fn)] = self._wrap(fn, self.layer(name), outcome)
            originals[id(fn)] = fn
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pillowcase"
                                   or modname.startswith("pillowcase.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is originals[id(value)]:
                    setattr(mod, attr, wrappers[id(value)])
                    self._rebound.append((mod, attr, value))
        return self

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._rebound):
            setattr(mod, attr, value)
        self._rebound.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- read-out ----------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as an extra span named ``name`` (the run's root)."""
        return self._wrap(fn, self.layer(name), None)(*args, **kwargs)

    def summary(self) -> dict[str, dict]:
        return {name: {"calls": ly.calls, "incl_s": ly.incl_s,
                       "self_s": ly.self_s, **dict(ly.counts)}
                for name, ly in sorted(self.layers.items())}


# ---------------------------------------------------------------------------
# outcome counters, read from return values
# ---------------------------------------------------------------------------

def _g(tr, ly, args, result):
    ly.counts["points"] += _points(*args[2:6])


def _newton_fiber(tr, ly, args, result):
    ly.counts["fail"] += not result[2]


def _newton_fiber_batch(tr, ly, args, result):
    ok = result[2]
    ly.counts["points"] += ok.size
    ly.counts["fail_points"] += ok.size - int(np.count_nonzero(ok))


def _g_pair(tr, ly, args, result):
    ly.counts["points"] += result[0].size


def _corrector(tr, ly, args, result):
    ly.counts["fail"] += not result[3]
    fp = tr.layers.get("compose.fiber_product")
    if fp is not None and fp.depth:
        fp.counts["corrector_calls"] += 1


def _solve_fiber(tr, ly, args, result):
    ly.counts[result.status] += 1


def _fiber_product(tr, ly, args, result):
    for b in result.branches:
        ly.counts["branches"] += 1
        ly.counts["samples"] += len(b.samples)
        # each loop holds its seed and its closing point besides the
        # corrector-accepted continuation steps
        ly.counts["accepted_steps"] += len(b.samples) - 2
        ly.counts["fold_crossings"] += b.fold_crossings


def _push_forward(tr, ly, args, result):
    ly.counts["vertices"] += sum(len(c.lift) for c in result.components)


def _intersect(tr, ly, args, result):
    ly.counts["hits"] += result.count


def _pi1_r3_of_chart(tr, ly, args, result):
    ly.counts["points"] += result.size // 3


def _scene_svg(tr, ly, args, result):
    ly.counts["bytes"] += len(result.encode())


# (module, attribute, layer name, outcome counter).  Layer names drop the
# leading underscore of private modules, since a metric name starts with a
# letter.
LAYERS = [
    ("_kernels", "_g_impl", "kernels.g", _g),
    ("_kernels", "newton_fiber", "kernels.newton_fiber", _newton_fiber),
    ("_kernels", "newton_fiber_batch", "kernels.newton_fiber_batch",
     _newton_fiber_batch),
    ("_kernels", "g_pair", "kernels.g_pair", _g_pair),
    ("_kernels", "corrector", "kernels.corrector", _corrector),
    ("_kernels", "tangent", "kernels.tangent", None),
    ("_kernels", "_ppoly_eval", "kernels.ppoly_eval", None),
    ("variety", "solve_fiber", "variety.solve_fiber", _solve_fiber),
    ("variety", "classify_grid", "variety.classify_grid", None),
    ("variety", "verify_topology", "variety.verify_topology", None),
    ("variety", "fold_locus", "variety.fold_locus", None),
    ("compose", "fiber_product", "compose.fiber_product", _fiber_product),
    ("compose", "push_forward", "compose.push_forward", _push_forward),
    ("compose", "check_transversality", "compose.check_transversality", None),
    ("curves", "intersect", "curves.intersect", _intersect),
    ("curves", "invariants", "curves.invariants", None),
    ("curves", "hausdorff_r3", "curves.hausdorff_r3", None),
    ("projection", "pi1_r3_of_chart", "projection.pi1_r3_of_chart",
     _pi1_r3_of_chart),
    ("projection", "verify_factorization", "projection.verify_factorization",
     None),
    ("words", "check_identities", "words.check_identities", None),
    ("_svg", "scene_svg", "svg.scene_svg", _scene_svg),
]
