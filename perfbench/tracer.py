"""Spans and call counts around the public entry points of `hdopt`'s layers.

The tracer wraps functions from the outside, by replacing module and class
attributes while it is installed; nothing in `src/` changes.  A span is
recorded for each call of a wrapped function.  Its self time is its
duration minus the durations of the spans it encloses, and a layer's self
time is the sum over its spans.  A call that enters a layer from another
layer (or from outside the program) is an entry; `<layer>.calls` counts
entries.

Python-visible calls are counted with a `sys.setprofile` hook: every `call`
and `c_call` event, except those raised by the tracer's own code, so the
count with wrappers installed equals the count without them.  Each span
records the counter at both ends, which gives calls per span the same way
as time per span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("objectives", "estimators", "protocol", "metrics", "theory", "runner")
# fields of a span record, one record per (layer, function name)
SPANS, INCL_S, SELF_S, INCL_CALLS, SELF_CALLS, ENTRIES, ENTRY_S, ENTRY_CALLS = range(8)
# private functions wrapped anyway: the per-cell function the runner's
# process pool calls, which defines one (population, seed) cell
PRIVATE_ENTRY_POINTS = {"runner": ("_run_cell",)}


class CallCounter:
    """`sys.setprofile` hook counting the program's call and c_call events."""

    def __init__(self, own_files):
        self.box = [0]
        box = self.box
        own = frozenset(own_files)

        def hook(frame, event, arg):
            if (event == "call" or event == "c_call") and frame.f_code.co_filename not in own:
                box[0] += 1

        self._hook = hook

    @property
    def calls(self):
        return self.box[0]

    def start(self):
        sys.setprofile(self._hook)

    def stop(self):
        sys.setprofile(None)


class Tracer:
    """Installs span wrappers on every hdopt layer and aggregates the spans."""

    def __init__(self, counter: CallCounter):
        self.box = counter.box
        self.stats = {}  # (layer, name) -> span record, fields as named above
        self._stack = []
        self._patches = []

    def reset(self):
        self.stats = {}

    def _wrap(self, layer, name, fn):
        stack, box, clock = self._stack, self.box, time.perf_counter
        key = (layer, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0, 0]
            stack.append((layer, children))
            c0 = box[0]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                dc = box[0] - c0
                stack.pop()
                rec = tracer.stats.get(key)
                if rec is None:
                    rec = tracer.stats[key] = [0, 0.0, 0.0, 0, 0, 0, 0.0, 0]
                rec[SPANS] += 1
                rec[INCL_S] += dt
                rec[SELF_S] += dt - children[0]
                rec[INCL_CALLS] += dc
                rec[SELF_CALLS] += dc - children[1]
                if not stack or stack[-1][0] != layer:
                    rec[ENTRIES] += 1
                    rec[ENTRY_S] += dt
                    rec[ENTRY_CALLS] += dc
                if stack:
                    parent = stack[-1][1]
                    parent[0] += dt
                    parent[1] += dc

        return wrapper

    def install(self):
        """Wrap each layer's public functions and public methods, then point
        every reference held by an hdopt module at the wrapper."""
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"hdopt.{layer}"]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for mname, member in list(vars(obj).items()):
                        if _wrappable(mname, member):
                            self._set(obj, mname, self._wrap(layer, f"{obj.__name__}.{mname}",
                                                             member))
                elif _wrappable(name, obj) or name in PRIVATE_ENTRY_POINTS.get(layer, ()):
                    replaced[obj] = self._wrap(layer, name, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "hdopt" and not modname.startswith("hdopt."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(module, name, replaced[obj])

    def _set(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _wrappable(name, obj):
    return (not name.startswith("_") and inspect.isfunction(obj)
            and not inspect.isgeneratorfunction(obj))


def layer_totals(stats):
    """Per layer, the sums of the span records' fields over its functions."""
    totals = {layer: [0, 0.0, 0.0, 0, 0, 0, 0.0, 0] for layer in LAYERS}
    for (layer, _), rec in stats.items():
        totals[layer] = [a + b for a, b in zip(totals[layer], rec)]
    return totals
