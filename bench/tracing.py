"""Spans around every public skelkit function, recorded from outside the package.

`installed(tracer)` rebinds each public function of each skelkit module,
in its defining module and in every skelkit module that imported it by
name, so calls across layers and calls within one module both pass
through a wrapper.  Every binding is restored on exit.

A span is (name, start, end, parent, op_id); parent is the index of the
enclosing span or -1.  Self time is a span's duration minus the part of
it its child spans cover.  The tracer adds self times up as spans close
and keeps at most SPAN_CAP spans in memory, which `write` saves when
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "skelkit"
MODIFY_TOPLEVEL = ("modify.reduce_to_divisorial", "modify.blowup_stratum", "modify.blowup_point")
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.phase = "ops"
        self.op_id = -1
        self.stack = []  # open frames: [name, layer, start, child_seconds, span_index]
        self.stats = {}  # (phase, name) -> [calls, self_seconds]
        self.layer_seconds = Counter()  # (phase, layer) -> time inside the outermost span of the layer
        self.counters = Counter()  # (phase, key) -> count
        self.spans = []
        self.dropped = 0
        self._depth = Counter()

    def begin(self, name, layer):
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            parent = self.stack[-1][4] if self.stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        else:
            self.dropped += 1
        self._depth[layer] += 1
        frame = [name, layer, perf_counter(), 0.0, index]
        self.stack.append(frame)
        if index >= 0:
            self.spans[index][1] = frame[2]
        return frame

    def end(self, frame):
        stop = perf_counter()
        name, layer, start, child, index = frame
        self.stack.pop()
        duration = stop - start
        if self.stack:
            self.stack[-1][3] += duration
        stat = self.stats.get((self.phase, name))
        if stat is None:
            stat = self.stats[(self.phase, name)] = [0, 0.0]
        stat[0] += 1
        stat[1] += duration - child
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.layer_seconds[(self.phase, layer)] += duration
        if index >= 0:
            self.spans[index][2] = stop

    @contextmanager
    def span(self, name):
        frame = self.begin(name, name.partition(".")[0])
        try:
            yield
        finally:
            self.end(frame)

    def inside(self, prefix) -> bool:
        return any(f[0].startswith(prefix) for f in self.stack)

    def count(self, key, amount=1):
        self.counters[(self.phase, key)] += amount

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id"],
                       "dropped": self.dropped, "spans": self.spans}, fh)


def self_times(spans):
    """Self time per span name: duration minus the union of its children's intervals."""
    children = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    out = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return out


# Extra stats taken at a layer boundary: (tracer, args) -> args before the
# call, (tracer, args, result) after it.

def _components_before(tracer, args):
    model, ids, *rest = args
    ids = list(ids)
    tracer.count("model.connected_components.strata_in", len(ids))
    return (model, ids, *rest)


def _is_face_after(tracer, args, result):
    tracer.count("model.is_face.true", bool(result))


def _load_after(tracer, args, result):
    tracer.count("modelfile.load_model.bytes", os.path.getsize(args[0]))


def _modify_after(tracer, args, result):
    if tracer.inside("modify."):
        return  # blowup_point delegates to blowup_stratum; count the outer call
    steps = result[2].steps
    tracer.count("modify.steps", len(steps))
    tracer.count("modify.strata_replaced", sum(len(s.replacements) for s in steps))


BEFORE = {"model.connected_components": _components_before}
AFTER = {
    "model.is_face": _is_face_after,
    "modelfile.load_model": _load_after,
    **{name: _modify_after for name in MODIFY_TOPLEVEL},
}


def _wrap(tracer, name, fn):
    layer = name.partition(".")[0]
    before, after = BEFORE.get(name), AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            args = before(tracer, args)
        frame = tracer.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def public_functions():
    """(module, attribute, function) for every public function a skelkit module defines."""
    out = []
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                out.append((mod, attr, obj))
    return out


@contextmanager
def installed(tracer):
    wrappers = {}
    for mod, attr, fn in public_functions():
        wrappers[id(fn)] = (fn, _wrap(tracer, f"{mod.__name__.rpartition('.')[2]}.{attr}", fn))
    saved = []
    try:
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        yield
    finally:
        for mod, attr, obj in reversed(saved):
            setattr(mod, attr, obj)
