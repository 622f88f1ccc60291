"""In-memory span recorder that traces chromres from outside its source.

`Tracer.installed()` wraps every public module-level function of the traced
layers and rebinds each module attribute that refers to one of them, so a
call made through any binding (``chromres.coloring.induced_subgraph`` as
well as ``chromres.graph.induced_subgraph``) opens a span. Spans stay in
memory as flat int64 records (id, parent id, name id, start ns, end ns),
which the garbage collector does not scan, and are written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("graph", "analytics", "isets", "coloring", "adversary", "lab")


class Tracer:
    def __init__(self, hooks=None):
        # hooks: span name -> fn(counts, result), run after the call returns,
        # to count work (vertices, sets, bytes) where it happens.
        self.hooks = hooks or {}
        self.names: list[str] = []
        self.records = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple] = {}  # id(function) -> (function, wrapper)

    def _wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        records, stack, clock = self.records, self._stack, time.perf_counter_ns
        hook, counts = self.hooks.get(name), self.counts
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                records.extend((span_id, parent, name_id, t0, t1))
            if hook is not None:
                hook(counts, result)
            return result

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def installed(self):
        """Trace chromres's layers for the duration of the block."""
        wrappers = self._wrappers
        for layer in LAYERS:
            mod = sys.modules[f"chromres.{layer}"]
            for attr, obj in vars(mod).items():
                if (id(obj) not in wrappers and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        patched = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "chromres" or name.startswith("chromres.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in reversed(patched):
                setattr(mod, attr, obj)

    def spans(self):
        r = self.records
        for i in range(0, len(r), 5):
            yield r[i], r[i + 1], r[i + 2], r[i + 3], r[i + 4]

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus the root-span total.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans sum to the root spans' total.
        """
        child_ns = defaultdict(int)
        for _, parent, _, t0, t1 in self.spans():
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        root_ns = 0
        for span_id, parent, name_id, t0, t1 in self.spans():
            name = self.names[name_id]
            self_ns[name] += (t1 - t0) - child_ns[span_id]
            calls[name] += 1
            if parent < 0:
                root_ns += t1 - t0
        return {
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "calls": dict(calls),
            "root_s": root_ns / 1e9,
        }

    def write(self, path, extra: dict) -> None:
        """Spans as [id, parent, name id, start ns, end ns] rows, one per line."""
        with open(path, "w", encoding="ascii") as f:
            f.write(json.dumps({**extra, "names": self.names,
                                "fields": ["id", "parent", "name", "start_ns", "end_ns"]}))
            f.write("\n")
            for rec in self.spans():
                f.write(json.dumps(list(rec)))
                f.write("\n")
