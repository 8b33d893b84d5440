"""Outside-in tracing of latsep's layers.

Each traced function is replaced, at every place a module binds it, by a
wrapper that counts calls and times a span around the call.  Spans nest
on one stack, so a span's self time is its duration minus the time of
the spans opened inside it.  Spans are folded into per-function totals
as they close instead of being kept one by one: one hole-tower pass
opens about a million of them.

A generator is timed across its whole iteration: its span covers every
resumption, while the consumer's work between two items is not counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# layer -> traced names; "Class.method" names a method, a bare class name
# times its construction.
LAYERS = {
    "linalg": [
        "rref",
        "rank",
        "solve",
        "nullspace",
        "solve_square",
        "integer_primitive",
        "canonical_direction",
        "independent_subset",
    ],
    "exactlp": [
        "EqualityFeasibility",
        "EqualityFeasibility.minimize",
        "EqualityFeasibility.duals",
        "EqualityFeasibility.farkas_duals",
        "EqualityFeasibility.feasible_point",
        "feasible_point",
    ],
    "geometry": [
        "point_in_conv",
        "convex_combination_support",
        "lattice_points_in_conv",
        "hull_facets",
        "affine_hull_basis",
        "iter_lines",
    ],
    "conditions": ["check_parallelogram", "check_ray", "search_flag", "verify_flag"],
    "convexity": [
        "k_convex_hull",
        "classify_holes",
        "is_k_convex",
        "is_hole_free",
        "is_integrally_convex",
        "simplex_lattice_points",
    ],
    "explorer": ["hunt_over_set", "bipartitions"],
}

SPAN_NAMES = [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


class Tracer:
    """Per-function call counts, total and self seconds.

    ``stats[name]`` is ``[calls, total_s, self_s]``; the lists are
    mutated in place, because the installed wrappers hold them.
    """

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.points_added = 0  # lattice points gained by k_convex_hull
        self.missing: list[str] = []  # traced names the library no longer has
        self._stack: list[list[float]] = []  # child seconds of each open span

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.points_added = 0

    def install(self) -> None:
        """Wrap every traced function at every binding site in sys.modules."""
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"latsep.{layer}")
            for name in names:
                span = f"{layer}.{name}"
                owner_name, _, method = name.partition(".")
                owner = getattr(module, owner_name, None)
                if method:
                    original = getattr(owner, method, None) if owner else None
                    if original is None:
                        self.missing.append(span)
                        continue
                    setattr(owner, method, self._wrap(span, original))
                elif isinstance(owner, type):
                    owner.__init__ = self._wrap(span, owner.__init__)
                elif owner is None:
                    self.missing.append(span)
                else:
                    self._rebind(owner, self._wrap(span, owner))

    def _wrap(self, span, fn):
        stat = self.stats[span]
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                stat[0] += 1
                return self._drive(stat, fn(*args, **kwargs))

            return generator_wrapper

        stack = self._stack
        clock = time.perf_counter
        counts_points = span == "convexity.k_convex_hull"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if counts_points:
                self.points_added += len(result) - len(args[0])
            return result

        return wrapper

    def _drive(self, stat, gen):
        stack = self._stack
        clock = time.perf_counter
        while True:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            yield item

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(module, attr, wrapper)
