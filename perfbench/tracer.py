"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps each public function in ``TRACED`` at every module
binding that holds it: ``from .charts import evaluate`` gives ``census``,
``degree``, ``annuli``, ``strip_lift`` and ``gallery`` their own names, and
each must be patched or its calls are missed.  Spans live on an in-memory
stack; when one closes, its duration minus the durations of the wrapped
spans it caused is added to its function's self time, so memory stays flat
however many calls a pass makes.  ``uninstall`` restores every binding.
"""
from __future__ import annotations

import sys
import time

TRACED = {
    "charts": ("evaluate", "chordal", "solve_profile_level"),
    "winding": ("winding_number",),
    "degree": ("local_degree", "component_degrees", "annular_degree",
               "find_preimages", "global_degree"),
    "annuli": ("decompose", "check_hypothesis_h", "pole_preimages"),
    "lefschetz": ("lefschetz_index", "fixed_point_in"),
    "strip_lift": ("verify_index", "lift_fixed_point", "nielsen_fixed_points"),
    "census": ("fixed_points", "theorem_a_crosscheck", "growth_report"),
    "cli": ("main",),
}
PACKAGE = "sphere_census"


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, int]] = {}
        self.fixed_oracle = None    # n -> expected fixed-point count, per query
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for entry in self.stats.values():
            for key in entry:
                entry[key] = 0

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for home, names in TRACED.items():
            home_mod = sys.modules[f"{PACKAGE}.{home}"]
            for name in names:
                key = f"{home}.{name}"
                original = getattr(home_mod, name)
                wrapper = self._wrap(key, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def _wrap(self, key: str, fn):
        fields, before, after = _COUNTERS.get(key, ((), None, None))
        stats = self.stats.setdefault(
            key, dict.fromkeys(("calls", "self_ns") + fields, 0))
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, stats, args, kwargs)
            span = [0]                  # time covered by wrapped children
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats["calls"] += 1
                stats["self_ns"] += duration - span[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(tracer, stats, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _count_samples(tracer, stats, args, kwargs):
    curve = args[0] if args else kwargs["curve"]
    stats["samples"] += len(curve.points)


def _count_m_used(tracer, stats, args, kwargs, result):
    stats["m_used"] += result.m_used


def _count_points(tracer, stats, args, kwargs, result):
    stats["points"] += len(result.points)
    if tracer.fixed_oracle is not None:
        n = args[1] if len(args) > 1 else kwargs.get("n", 1)
        stats["oracle"] += tracer.fixed_oracle(n)


# extra counters per function: (fields, hook before the call, hook after it)
_COUNTERS = {
    "winding.winding_number": (("samples",), _count_samples, None),
    "strip_lift.verify_index": (("m_used",), None, _count_m_used),
    "census.fixed_points": (("points", "oracle"), None, _count_points),
}
