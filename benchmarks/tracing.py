"""Outside-in layer spans for one benchmark sample.

The program is not edited.  ``instrument`` replaces, at run time, every
name a cqadsim module binds to a cqadsim function (its own definitions and
the names it imports from other modules), the methods of cqadsim classes,
and the scipy kernels the modules bind (``expm``, imported as ``_expm`` by
hilbert, dynamics and sequences, and ``solve_ivp`` in dynamics).  The
wrappers record a span whenever a call crosses from one layer into another;
a call that stays inside one layer runs straight through.  A layer's self
time is the time its spans cover minus the time their child spans cover, so
the self times of all layers add up to the root span.

Spans are kept on one stack, which assumes one thread: the benchmark runs
every workload with jobs=1.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
import uuid
from collections import Counter, defaultdict

# Layers are the package modules; keyval is part of the cli layer.
LAYERS = {
    "cqadsim.hilbert": "hilbert",
    "cqadsim.device": "device",
    "cqadsim.dynamics": "dynamics",
    "cqadsim.sequences": "sequences",
    "cqadsim.swtheory": "swtheory",
    "cqadsim.analysis": "analysis",
    "cqadsim.cli": "cli",
    "cqadsim.keyval": "cli",
}
HARNESS = "harness"


class Tracer:
    """Spans of one sample: ``[name, start, end, parent index]`` in call order."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open = [-1]
        self._layers = [None]

    def call(self, layer: str, name: str, fn, args, kwargs):
        if self._layers[-1] == layer:
            return fn(*args, **kwargs)
        span = [f"{layer}:{name}", 0.0, 0.0, self._open[-1]]
        self._open.append(len(self.spans))
        self._layers.append(layer)
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            self._layers.pop()

    def layer_metrics(self) -> dict[str, float]:
        """Self time and span count per layer, plus the counters."""
        covered_by_children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered_by_children[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered_by_children):
            layer = name.partition(":")[0]
            self_s[layer] += end - start - child
            calls[layer] += 1
        out = {f"{layer}.self_s": t for layer, t in self_s.items()}
        out.update({f"{layer}.calls": n for layer, n in calls.items()})
        out["kernel.self_s"] = self_s["kernel.expm"] + self_s["kernel.ode"]
        out.update(self.counts)
        segments = self.counts["dynamics.segments"]
        if segments:
            out["dynamics.build_ratio"] = self.counts["dynamics.propagator_builds"] / segments
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "run_id": self.run_id,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
        }))


def _count_expm(counts, args, kwargs, result):
    n = args[0].shape[0]
    counts["kernel.expm.n3"] += n**3
    counts["kernel.expm.dim_max"] = max(counts["kernel.expm.dim_max"], n)


def _count_ode(counts, args, kwargs, result):
    counts["kernel.ode.nfev"] += result.nfev


def _count_segments(counts, args, kwargs, result):
    segments = args[1] if len(args) > 1 else kwargs["segments"]
    counts["dynamics.segments"] += len(segments)


def _traced(tracer: Tracer, layer: str, fn, count=None):
    name = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(layer, name, fn, args, kwargs)
        if count is not None:
            count(tracer.counts, args, kwargs, result)
        return result

    return wrapper


def instrument(tracer: Tracer):
    """Route every cross-layer call of the imported cqadsim modules through ``tracer``."""
    import scipy.integrate
    import scipy.linalg

    kernels = {
        id(scipy.linalg.expm): ("kernel.expm", _count_expm),
        id(scipy.integrate.solve_ivp): ("kernel.ode", _count_ode),
    }
    modules = {name: sys.modules[name] for name in LAYERS}
    counted = {("cqadsim.dynamics", "evolve_segments"): _count_segments}
    wrappers: dict[int, object] = {}

    def wrap(fn, layer, count=None):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = _traced(tracer, layer, fn, count)
        return wrappers[id(fn)]

    for module_name, module in modules.items():
        for name, obj in list(vars(module).items()):
            if id(obj) in kernels:
                setattr(module, name, wrap(obj, *kernels[id(obj)]))
            elif isinstance(obj, types.FunctionType) and obj.__module__ in LAYERS:
                count = counted.get((obj.__module__, obj.__name__))
                setattr(module, name, wrap(obj, LAYERS[obj.__module__], count))
            elif isinstance(obj, type) and obj.__module__ == module_name:
                _instrument_class(obj, LAYERS[module_name], wrap)

    cache = modules["cqadsim.dynamics"]._CACHE
    put = cache.put

    def counted_put(key, value):
        tracer.counts["dynamics.propagator_builds"] += 1
        return put(key, value)

    cache.put = counted_put


def _instrument_class(cls, layer, wrap):
    for name, attr in list(vars(cls).items()):
        if name.startswith("__") and name != "__post_init__":
            continue
        if isinstance(attr, types.FunctionType):
            setattr(cls, name, wrap(attr, layer))
        elif isinstance(attr, (classmethod, staticmethod)):
            setattr(cls, name, type(attr)(wrap(attr.__func__, layer)))
