"""Run-time spans at the module boundaries of a package.

The tracer wraps, from outside the package, every function that one of its
modules imports from another, by rebinding the importing module's name.
Calls inside a module stay unwrapped, so a span always marks a crossing
from one layer (module) into another.  Spans live in flat arrays in memory:
span i has a name, a parent span (-1 at an op's root), an op id and integer
start and end times in nanoseconds, so self times add up exactly.  The
tracer's own work around a span (its bookkeeping and the hook) is timed as
the span's cost and charged to the benchmark's layer, not to the caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import defaultdict

#: Layer of the benchmark's own op span.
BENCH_LAYER = "bench"


def package_modules(package) -> dict:
    """Short name -> module for every module of the package."""
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


def boundary_functions(package) -> list[tuple]:
    """(importer, attribute, callee layer, function) for cross-module imports.

    Found by inspecting each module's namespace: a plain function whose
    defining module is another module of the same package.
    """
    modules = package_modules(package)
    prefix = package.__name__ + "."
    found = []
    for importer, module in sorted(modules.items()):
        for attr, obj in sorted(vars(module).items()):
            if not inspect.isfunction(obj):
                continue
            home = obj.__module__ or ""
            if home.startswith(prefix) and home != module.__name__:
                found.append((importer, attr, home[len(prefix):], obj))
    return found


class Tracer:
    """Records spans while an op is open; calls outside an op pass through."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self.cost = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.hook_errors = 0
        self._stack = [-1]
        self._op = -1
        self._installed: list[tuple] = []

    def intern(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0)
        self.cost.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return self._open(self.intern("op", BENCH_LAYER))

    def end_op(self, span: int) -> None:
        self._close(span)
        self._op = -1

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def note_distinct(self, key: str, value) -> None:
        """Remember value under key for the open op (distinct values per op)."""
        self.distinct[key].add((self._op, value))

    def wrap(self, fn, name: str, layer: str, hook=None):
        """fn wrapped in a span; hook(tracer, args, kwargs, result) runs after it."""
        nid = self.intern(name, layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            t_in = time.perf_counter_ns()
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
                tracer.cost[i] = tracer.start[i] - t_in
            if hook is not None:
                # A hook reads arguments and results; a signature it does not
                # know must not fail the op, so it is counted instead.
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError, KeyError, OSError):
                    tracer.hook_errors += 1
            tracer.cost[i] += time.perf_counter_ns() - tracer.end[i]
            return result

        return wrapper

    def install(self, package, entry_points=(), hooks=None) -> int:
        """Wrap every boundary function plus the named entry points of modules.

        entry_points holds (module short name, attribute) pairs; hooks maps a
        function's __name__ to its hook.  Returns the number of wrappers.
        """
        hooks = hooks or {}
        modules = package_modules(package)
        targets = boundary_functions(package)
        for module_name, attr in entry_points:
            targets.append((module_name, attr, module_name, getattr(modules[module_name], attr)))
        for importer, attr, layer, fn in targets:
            module = modules[importer]
            name = f"{importer}<-{layer}.{fn.__name__}"
            wrapped = self.wrap(fn, name, layer, hooks.get(fn.__name__))
            self._installed.append((module, attr, fn))
            setattr(module, attr, wrapped)
        return len(targets)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple[list[int], list[int]]:
        """(duration, self time) per span, in ns.

        Self time is the duration minus what the direct children cover: their
        durations plus the tracer's cost around them.  Single-threaded
        children never overlap, so that is the part of the interval they take.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i] + self.cost[i]
        return dur, own

    def summary(self) -> dict:
        """Per-name and per-layer calls and self time, plus the per-op balance.

        ops maps op id -> (op span duration, sum of self times and costs in
        the op); the two are equal when the spans nest properly.  The costs
        count in the benchmark's layer, and in total under tracing_ns.
        """
        dur, own = self.self_times()
        by_name = defaultdict(lambda: [0, 0])
        ops = {}
        op_self = defaultdict(int)
        for i, nid in enumerate(self.name):
            entry = by_name[nid]
            entry[0] += 1
            entry[1] += own[i]
            op_self[self.op[i]] += own[i] + self.cost[i]
            if self.parent[i] < 0:
                ops[self.op[i]] = dur[i]
        names = {self.names[nid]: tuple(v) for nid, v in by_name.items()}
        layers = defaultdict(lambda: [0, 0])
        for nid, (calls, ns) in by_name.items():
            layers[self.layers[nid]][0] += calls
            layers[self.layers[nid]][1] += ns
        tracing_ns = sum(self.cost)
        if tracing_ns:
            layers[BENCH_LAYER][1] += tracing_ns
        return {
            "names": names,
            "layers": {k: tuple(v) for k, v in layers.items()},
            "ops": {op: (ops[op], op_self[op]) for op in ops},
            "negative_self": sum(1 for x in own if x < 0),
            "tracing_ns": tracing_ns,
        }

    def write(self, path: str) -> None:
        """All spans as gzip CSV: span,op,parent,layer,name,start_ns,end_ns,cost_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,op,parent,layer,name,start_ns,end_ns,cost_ns\n")
            for i, nid in enumerate(self.name):
                fh.write(
                    f"{i},{self.op[i]},{self.parent[i]},{self.layers[nid]},"
                    f"{self.names[nid]},{self.start[i]},{self.end[i]},{self.cost[i]}\n"
                )
