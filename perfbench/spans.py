"""Spans around the public functions of barrierwalk's modules.

`install` replaces each public function of the traced modules with a wrapper
that records a span: the function's name, its parent span and its start and
end times.  It patches every module attribute bound to the function, so
`from .walk import step` in experiments.py and the module-global calls inside
walk.py (step -> apply_*) both go through the wrapper, nested as the program
really makes them.  Nothing under src/ changes.

Spans stay in memory until `Tracer.dump`; `summarize` turns them into
per-function calls, total time and self time (total minus the time of the
span's direct children).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# ctqw is left out: no workload runs it.
TRACED_MODULES = ("cli", "experiments", "walk", "reduced", "phases")
# Private functions traced as well: per-point times of a sweep.
EXTRA_FUNCTIONS = {"experiments": ("_sweep_point",)}
# Work counted at the span boundary, from the call's arguments and result.
COUNTS = {
    "reduced.evolve_reduced": lambda args, result: len(result) - 1,
    "experiments.write_curve_csv": lambda args, result: len(args[0].x),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent span index, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count, counts = COUNTS.get(name), self.counts

        def traced(*args, **kwargs):
            span = [index, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                counts[name] += count(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}


def _traceable(value) -> bool:
    return inspect.isfunction(value) or hasattr(value, "cache_info")


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of barrierwalk, wherever a module binds them."""
    wrappers = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"barrierwalk.{short}")
        for attr in (*module.__all__, *EXTRA_FUNCTIONS.get(short, ())):
            fn = getattr(module, attr)
            if _traceable(fn) and id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, tracer.wrap(f"{short}.{attr}", fn))
    for name, module in list(sys.modules.items()):
        if name != "barrierwalk" and not name.startswith("barrierwalk."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def summarize(dump: dict) -> dict[str, dict[str, float]]:
    """Per function: calls, total_s, self_s, first_s (first call), max_s."""
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "first_s": 0.0, "max_s": 0.0}
    )
    for i, (index, _, start, end) in enumerate(spans):
        entry = stats[names[index]]
        duration = end - start
        if entry["calls"] == 0:
            entry["first_s"] = duration
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[i]
        entry["max_s"] = max(entry["max_s"], duration)
    return dict(stats)


def outermost_total(dump: dict, prefix: str) -> tuple[int, float]:
    """Calls of spans named prefix.*, and the time of those whose parent is not."""
    names, spans = dump["names"], dump["spans"]
    inside = [names[index].startswith(prefix) for index, _, _, _ in spans]
    calls, total = 0, 0.0
    for i, (_, parent, start, end) in enumerate(spans):
        if inside[i]:
            calls += 1
            if parent < 0 or not inside[parent]:
                total += end - start
    return calls, total
