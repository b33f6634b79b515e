"""Tracing of cathseg's public functions from outside the program.

The tracer replaces every public function attribute of the cathseg layer
modules with a wrapper that records one span per call: name, start, end,
parent span and the id of the work item (catheter or volume) being run.
A function is wrapped under each name its callers use, so
``cathseg.engine.cone_search`` and ``cathseg.features.cone_search`` are two
wrappers around one function; spans are always named after the defining
module.  Spans stay in memory and are written out once at the end.

Counters attached to a few boundaries record work done as counts
(trilinear points, rays, file bytes, voxels, tubes), read from the call's
arguments or result so the program itself is never modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

PACKAGE = "cathseg"
LAYERS = ("volume", "features", "spring", "engine", "bezier", "phantom",
          "evaluation")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_points(counts, args, kwargs, result):
    u = _arg(args, kwargs, 1, "u")
    counts["volume.sample_voxel.points"] += u.size // 3


def _count_rays(counts, args, kwargs, result):
    counts["features.rays"] += len(result)


def _count_fallbacks(counts, args, kwargs, result):
    counts["engine.init_fallbacks"] += int(bool(result.used_fallback))


def _count_bytes(counts, args, kwargs, result):
    counts["volume.load_volume.bytes"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))


def _count_phantom(counts, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    dims = [int(d) for d in spec.dims]
    counts["phantom.voxels"] += dims[0] * dims[1] * dims[2]
    counts["phantom.tubes_stamped"] += len(spec.catheters) + sum(
        1 for d in spec.distractors if d.kind == "tube")


COUNTERS = {
    "volume.sample_voxel": _count_points,
    "features.disc_points": _count_rays,
    "engine.estimate_model": _count_fallbacks,
    "volume.load_volume": _count_bytes,
    "phantom.generate_phantom": _count_phantom,
}


class Tracer:
    """Span recorder; ``install`` patches the layer modules, ``uninstall``
    restores them.  Use as a context manager around the traced region."""

    def __init__(self):
        self.spans = []              # [name, start, end, parent, item]
        self.counts = defaultdict(float)
        self.item = "setup"
        self.paused = False          # checks run untraced between traced items
        self._stack = []
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE + ".")):
                    continue
                self._patches.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj))

    def uninstall(self):
        while self._patches:
            module, attr, obj = self._patches.pop()
            setattr(module, attr, obj)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def per_function(self) -> dict:
        """{name: {"calls", "s", "self_s"}}; self time is the span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), inner in zip(self.spans, child):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - inner
        return dict(out)

    def write(self, path):
        """Spans as JSON lines: name, start, end (s), parent index, item."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
