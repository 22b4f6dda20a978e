"""In-memory span tracer installed over the library's public functions.

Spans are (name, start, end, parent, request) records kept in a list and
written out when the run ends.  Wrappers replace every binding of a traced
function: the defining module's attribute, names copied into other modules
with ``from ... import``, the package namespace, and function references held
in module-level dicts (such as the pipeline's stage table).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# modules whose public functions become spans; `nn` and `cli` are left out
# (one-line pass-throughs to `tensor`, and an entry point the benchmark does
# not use)
LAYERS = ("tensor", "embed", "retrievaldb", "fusion", "geometry", "metrics",
          "grids", "pipeline")

# public methods traced besides module-level functions: (module, class, method)
METHODS = (
    ("embed", "ChunkEncoderPair", "encode_inputs"),
    ("embed", "ChunkEncoderPair", "encode_targets"),
    ("retrievaldb", "ChunkDatabase", "build_index"),
    ("fusion", "FusionModel", "refine"),
    ("fusion", "FusionModel", "refine_batch"),
    ("metrics", "MeshDistanceIndex", "query"),
)

# span names the metric table reads under a shorter alias
ALIASES = {"metrics.MeshDistanceIndex.query": "metrics.distance_query",
           "embed.ChunkEncoderPair.encode_inputs": "embed.encode_inputs",
           "embed.ChunkEncoderPair.encode_targets": "embed.encode_targets",
           "retrievaldb.ChunkDatabase.build_index": "retrievaldb.build_index",
           "fusion.FusionModel.refine": "fusion.refine",
           "fusion.FusionModel.refine_batch": "fusion.refine_batch"}

F32 = 4


def _conv3_work(args, kwargs, out):
    """Computed FLOPs and bytes moved of one forward conv3 from shapes."""
    x, w = args[0], args[1]
    n, cin = x.shape[:2]
    cout, _, k = w.shape[:3]
    outs = out.shape[2] * out.shape[3] * out.shape[4]
    flop = 2 * n * cout * outs * cin * k ** 3
    moved = F32 * (x.data.size + w.data.size + out.data.size)
    return {"gflop": flop / 1e9, "gbytes": moved / 1e9}


def _tconv3_work(args, kwargs, out):
    """Computed FLOPs and bytes moved of one forward transposed_conv3."""
    x, w = args[0], args[1]
    n, cin = x.shape[:2]
    cout, k = w.shape[1], w.shape[2]
    ins = x.shape[2] * x.shape[3] * x.shape[4]
    flop = 2 * n * cin * ins * cout * k ** 3
    moved = F32 * (x.data.size + w.data.size + out.data.size)
    return {"gflop": flop / 1e9, "gbytes": moved / 1e9}


def _chunk_count(args, kwargs, out):
    return {"chunks": len(out)}


def _extend_count(args, kwargs, out):
    return {"chunks": len(args[1])}


def _faces(args, kwargs, out):
    return {"faces": out.n_faces}


class Tracer:
    """Collects spans and work counters while installed."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, request]
        self.counts: dict[str, float] = defaultdict(float)
        self.point_sets: set[bytes] = set()
        self.request = 0                 # id stamped on new spans
        self.paused_s = 0.0              # time spent in paused(), untraced
        self._paused = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._counters = {
            "tensor.conv3": _conv3_work,
            "tensor.transposed_conv3": _tconv3_work,
            "embed.encode_inputs": _chunk_count,
            "embed.encode_targets": _chunk_count,
            "retrievaldb.extend": _extend_count,
            "geometry.marching_cubes": _faces,
            "metrics.distance_query": self._distance_query,
        }

    def _distance_query(self, args, kwargs, out):
        points = np.ascontiguousarray(args[1] if len(args) > 1 else kwargs["points"])
        self.point_sets.add(hashlib.sha1(points.tobytes()).digest())
        return {"points": len(out[0])}

    def next_request(self):
        self.request += 1

    @contextmanager
    def paused(self):
        """Run check-only work untraced: no spans, no counts."""
        t0 = time.perf_counter()
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            self.paused_s += time.perf_counter() - t0

    def _wrap(self, name: str, fn):
        counter = self._counters.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    self.counts[f"{name}.{key}"] += value
            return out
        traced.__traced__ = True
        return traced

    def install(self, package):
        """Wrap the public functions of every layer at every binding."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__ or hasattr(fn, "__wrapped__")):
                    continue
                originals[id(fn)] = self._wrap(ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}"), fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, originals[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            self._undo.append((value, key, item))
                            value[key] = originals[id(item)]
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{layer}"], cls_name)
            fn = inspect.getattr_static(cls, meth)
            full = f"{layer}.{cls_name}.{meth}"
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(ALIASES.get(full, full), fn))
        return self

    def uninstall(self):
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, f)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = _union([(spans[c][1], spans[c][2]) for c in children.get(idx, ())],
                         start, end)
        out.append((end - start) - covered)
    return out


def covered_time(spans, start: float, end: float) -> float:
    """Length of [start, end] covered by the top-level spans."""
    return _union([(s[1], s[2]) for s in spans if s[3] < 0], start, end)


def _union(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s (summed self time) and total_s
    (summed duration of outermost calls, so recursion is not counted twice)."""
    selfs = self_times(spans)
    agg: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for idx, span in enumerate(spans):
        name = span[0]
        entry = agg[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[idx]
        parent, nested = span[3], False
        while parent >= 0:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            entry["total_s"] += span[2] - span[1]
    return dict(agg)
