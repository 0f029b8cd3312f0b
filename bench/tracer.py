"""Span tracing of the ainfbench layers, installed from outside the package.

``Tracer.install`` wraps every public function and every public method of
the layer modules and rebinds each name that refers to them, including the
``from .x import y`` copies in other modules (``cli`` among them).  Each
wrapper records a span (id, parent, root, name, start, end) and counts the
call under its caller.  Self time is a span's duration minus the time its
child spans cover; a name's inclusive time counts only outermost calls, so
recursion and nested members of one group are not counted twice.

The scalar operations of ``ExactField``, the relation sweep's table probes
and the category's per-label accessors run up to millions of times per pass,
so they are only counted, not timed: their time stays in their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "ainfbench"
LAYERS = ("scalars", "linalg", "ainf", "filtration", "auslander", "perfmod", "hochschild",
          "specfile", "cli")
SCALAR_OPS = ("add", "sub", "mul", "neg", "inv")
COUNT_ONLY = {f"scalars.ExactField.{op}" for op in SCALAR_OPS} | {
    f"ainf.AInfCategory.{m}" for m in ("apply_labels", "deg", "src", "tgt", "is_unit")
}

# Spans kept per name; calls beyond this are still counted and timed.
SPANS_PER_NAME = 2000

# Names whose inclusive time is reported together, counting only the outermost call.
GROUPS = {
    "linalg.QuotientPresentation.project": "linalg.project",
    "linalg.QuotientPresentation.project_strict": "linalg.project",
    "specfile.parse_spec": "specfile.parse",
    "specfile.parse_spec_dict": "specfile.parse",
    "specfile.serialize": "specfile.serialize",
    "specfile.category_to_dict": "specfile.serialize",
    "specfile.serialize_category": "specfile.serialize",
}

# Calls whose result is tested for being non-empty (a useful probe).
HIT_NAMES = {"ainf.AInfCategory.apply_labels", "ainf.AInfCategory.apply"}


def _gamma_size(args, kwargs, result):
    gamma = result.gamma
    return {"gamma.dim": gamma.total_dim(),
            "gamma.entries": sum(len(t) for t in gamma.mult.values())}


def _rref_rows(args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return {"linalg.rref.rows": len(rows)}


def _serialized_bytes(args, kwargs, result):
    return {"specfile.bytes": len(result.encode("utf-8"))}


def _parsed_bytes(args, kwargs, result):
    return {"specfile.bytes": os.path.getsize(args[0] if args else kwargs["path"])}


MEASURES = {
    "auslander.build_auslander": _gamma_size,
    "linalg.rref": _rref_rows,
    "specfile.serialize": _serialized_bytes,
    "specfile.parse_spec": _parsed_bytes,
}


class Tracer:
    def __init__(self):
        self.calls = Counter()            # name -> calls
        self.edges = Counter()            # (caller, name) -> calls
        self.hits = Counter()             # (caller, name) -> calls with a non-empty result
        self.measures = Counter()         # measure -> summed size
        self.inclusive = defaultdict(float)   # group -> outermost inclusive seconds
        self.self_time = defaultdict(float)   # name -> self seconds
        self.spans = []                   # (id, parent, root, name, start, end)
        self._stored = Counter()
        self._stack = []                  # frames: [name, child seconds, id, root id]
        self._depth = Counter()
        self._ids = itertools.count(1)
        self._patches = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[id(value)] = (value, self._timed(f"{layer}.{attr}", value))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_methods(layer, value)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, wrappers[id(value)][1])

    def _wrap_methods(self, layer, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in COUNT_ONLY:
                self._patch(cls, attr, self._counted(name, value))
            elif layer != "scalars":
                self._patch(cls, attr, self._timed(name, value))

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------------

    def _counted(self, name, fn):
        calls, hits = self.calls, self.hits
        if name not in HIT_NAMES:
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        def counted_hit(*args):
            calls[name] += 1
            result = fn(*args)
            if result:
                hits["*", name] += 1
            return result
        return counted_hit

    def _timed(self, name, fn):
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        calls, edges, hits = self.calls, self.edges, self.hits
        group = GROUPS.get(name, name)
        hit = name in HIT_NAMES
        measure = MEASURES.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            caller = parent[0] if parent else None
            calls[name] += 1
            edges[caller, name] += 1
            span_id = next(self._ids)
            frame = [name, 0.0, span_id, parent[3] if parent else span_id]
            stack.append(frame)
            depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._close(frame, parent, group, start, end)
            if hit and result:
                hits[caller, name] += 1
            if measure is not None:
                self.measures.update(measure(args, kwargs, result))
            return result

        return functools.wraps(fn)(traced)

    def _close(self, frame, parent, group, start, end) -> None:
        self._stack.pop()
        self._depth[group] -= 1
        duration = end - start
        name = frame[0]
        self.self_time[name] += duration - frame[1]
        if parent is not None:
            parent[1] += duration
        if not self._depth[group]:
            self.inclusive[group] += duration
        if self._stored[name] < SPANS_PER_NAME:
            self._stored[name] += 1
            self.spans.append((frame[2], parent[2] if parent else None, frame[3], name, start, end))

    @contextmanager
    def root(self, name):
        """A top-level span around one step of the workload."""
        span_id = next(self._ids)
        frame = [name, 0.0, span_id, span_id]
        self._stack.append(frame)
        self._depth[name] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, None, name, start, time.perf_counter())

    # -- results -------------------------------------------------------------

    def counts(self) -> dict:
        """Every deterministic count, for comparing two traced passes."""
        return {
            "calls": dict(self.calls),
            "edges": {f"{a}>{b}": v for (a, b), v in self.edges.items()},
            "hits": {f"{a}>{b}": v for (a, b), v in self.hits.items()},
            "measures": dict(self.measures),
        }

    def scalar_ops(self) -> int:
        return sum(self.calls[f"scalars.ExactField.{op}"] for op in SCALAR_OPS)

    def root_seconds(self) -> float:
        return sum(end - start for _, parent, _, name, start, end in self.spans
                   if parent is None and name.startswith("bench."))

    def layer_self_seconds(self, layer: str) -> float:
        return sum(v for name, v in self.self_time.items() if name.split(".", 1)[0] == layer)

    def span_records(self) -> list:
        return [{"id": i, "parent": p, "root": r, "name": n, "start": s, "end": e}
                for i, p, r, n, s, e in self.spans]
