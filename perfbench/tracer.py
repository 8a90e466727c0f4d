"""Per-layer spans for the traced run, installed from outside ``lapcomp``.

Every plain function in a ``lapcomp`` module's ``__all__`` (``cli.main``
included) gets one wrapper, and that wrapper is bound under every name in
every ``lapcomp`` module that refers to the same function object, so calls
across modules are attributed too.  Generator functions are not wrapped, so
their iteration is charged to whoever iterates; likewise ``solve_Sn``'s
span covers only building its iterator.

A span's self time is its duration minus the durations of the spans it
directly encloses, so the self times of all layers add up to the time
spent inside the outermost span.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("graph_core", "exact_linalg", "cone_engine", "tree_transforms",
           "cycle_families", "conjecture_lab", "ehrhart_reflexive", "cli")


def _box_cells(simplex, t) -> int:
    """Size of the box `dilate_points` scans, from the simplex's vertices."""
    if t == 0:
        return 1
    return math.prod(
        max(t * v[i] for v in simplex.vertices) - min(t * v[i] for v in simplex.vertices) + 1
        for i in range(simplex.dimension)
    )


def _count_fpp(counters, result, args, kwargs):
    counters["cone_engine.fpp_points.points"] += len(result)


def _count_dilate(counters, result, args, kwargs):
    counters["ehrhart_reflexive.dilate_points.points"] += len(result)
    simplex = args[0] if args else kwargs["s"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    counters["ehrhart_reflexive.dilate_points.cells"] += _box_cells(simplex, t)


_WORK_COUNTERS = {
    "cone_engine.fpp_points": _count_fpp,
    "ehrhart_reflexive.dilate_points": _count_dilate,
}


class Tracer:
    """Wraps the package's public functions and accumulates span statistics."""

    def __init__(self):
        from lapcomp.cone_engine import BudgetExceededError

        self._refusal_type = BudgetExceededError
        self._stack: list[list[int]] = []
        self._last_refusal = None
        self.reset()

    def reset(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.refusals: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    def _wrap(self, fn, key: str, module: str):
        tracer = self
        stack = self._stack
        counter = _WORK_COUNTERS.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except tracer._refusal_type as exc:
                if exc is not tracer._last_refusal:
                    tracer._last_refusal = exc
                    tracer.refusals[module] += 1
                raise
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                tracer.self_ns[key] += duration - frame[0]
                tracer.calls[key] += 1
                if stack:
                    stack[-1][0] += duration
            if counter is not None:
                counter(tracer.counters, result, args, kwargs)
            return result

        return span

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules[f"lapcomp.{short}"]
            names = set(getattr(module, "__all__", ())) | ({"main"} if short == "cli" else set())
            for name in sorted(names):
                fn = getattr(module, name)
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(fn) and id(fn) not in wrappers):
                    wrappers[id(fn)] = self._wrap(fn, f"{short}.{name}", short)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lapcomp" and not mod_name.startswith("lapcomp."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def snapshot(self) -> dict:
        """Plain-dict copy of the statistics gathered since the last reset."""
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "refusals": dict(self.refusals),
            "counters": dict(self.counters),
        }
