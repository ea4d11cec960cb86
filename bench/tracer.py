"""Outside-in tracing of the groupoid_lab layers.

The tracer wraps the public functions of each library module from the
outside: the library source is not touched.  ``from .base import pullback``
copies a function into every importing module, so every ``groupoid_lab``
namespace that binds a wrapped function gets the wrapper.  The two base
constructors and ``LimitResult.mediate`` are patched on their classes.
``compose`` stays unwrapped: it is called millions of times on the sweep
and wrapping it would mostly measure the wrapper.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly caused, so the self times of all spans
add up to the time spent inside the library.  Totals are kept per function;
spans that cross a layer boundary are also kept one by one (up to a cap)
and written out with the totals when the run ends.
"""

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("base", "groupoid", "holim", "classify", "arrow", "harness",
          "serialize", "cli")

# (layer, function) pairs reported one by one; module totals cover the rest
REPORTED = {
    "base": ("BaseObject", "BaseMorphism", "pullback", "finite_limit",
             "kernel", "LimitResult.mediate", "classify_morphism",
             "enumerate_morphisms"),
    "groupoid": ("make_groupoid", "validate_groupoid", "validate_functor",
                 "validate_transformation"),
    "holim": ("arrow_groupoid", "strong_h_pullback", "strong_h_kernel",
              "pullback_groupoid", "comparison_T_data", "comparison_J_data"),
    "classify": ("classification_report", "classify_fibration",
                 "classify_star_fibration", "partial_zero",
                 "is_fully_faithful", "is_weak_equivalence",
                 "is_equivalence"),
    "arrow": ("comparison_J_arr", "strong_h_kernel_arr", "kernel_arr",
              "partial_zero_arr", "is_essentially_surjective_arr",
              "normalize"),
    "harness": ("run_suite",),
    "serialize": ("value_from_data", "value_to_data"),
    "cli": ("main",),
}

COUNTS = ("base.BaseObject.validated", "base.BaseMorphism.validated",
          "base.pullback.apex_elems", "base.finite_limit.apex_elems",
          "base.enumerate_morphisms.homs", "holim.arrow_groupoid.squares",
          "holim.arrow_groupoid.rebuilds")

UNWRAPPED = {"base.compose"}

# the positional index of ``_trusted`` in each patched constructor
_TRUSTED_ARG = {"base.BaseObject": 7, "base.BaseMorphism": 4}

SPAN_CAP = 50_000


def metric_names():
    """Per-layer metric names with units, in report order."""
    names = []
    for layer, fns in REPORTED.items():
        for fn in fns:
            names.append((f"{layer}.{fn}.calls", "count"))
            names.append((f"{layer}.{fn}.self_s", "s"))
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [(name, "count") for name in COUNTS]
    names += [("harness.run_suite.slowest_s", "s"), ("trace.wall_s", "s")]
    return names


class Tracer:
    """Span bookkeeping for one traced run."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        # one frame per open span: [child seconds, span id, layer]
        self.stack = []
        self.spans = []          # boundary spans: (id, parent, name, t0, t1)
        self.spans_dropped = 0
        self.verdicts = []       # (tag, t0, t1)
        self.slowest_suite = (0.0, None)
        self._seen_arrow_bases = {}
        self.on = True

    @contextlib.contextmanager
    def paused(self):
        """Let calls through unrecorded, e.g. while outputs are checked."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    # -- verdict boundaries ------------------------------------------------

    def begin_verdict(self):
        self._seen_arrow_bases = {}
        return time.perf_counter()

    def end_verdict(self, tag, t0):
        self.verdicts.append((tag, t0, time.perf_counter()))
        self._seen_arrow_bases = {}

    # -- span recording ----------------------------------------------------

    def _open(self, layer):
        stack = self.stack
        span_id = -1
        if not stack or stack[-1][2] != layer:
            if len(self.spans) < SPAN_CAP:
                span_id = len(self.spans)
                self.spans.append(None)
            else:
                self.spans_dropped += 1
        frame = [0.0, span_id, layer]
        stack.append(frame)
        return frame

    def _close(self, key, frame, t0, t1, count=True):
        stack = self.stack
        stack.pop()
        dur = t1 - t0
        self.self_s[key] += dur - frame[0]
        if count:
            self.calls[key] += 1
        if stack:
            stack[-1][0] += dur
        if frame[1] >= 0:
            parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
            self.spans[frame[1]] = (frame[1], parent, key, t0, t1)

    def wrap(self, fn, key, layer):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, key, layer)
        tracer = self
        hook = _HOOKS.get(key)
        trusted_at = _TRUSTED_ARG.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if trusted_at is not None and not kwargs.get(
                    "_trusted",
                    args[trusted_at] if len(args) > trusted_at else False):
                tracer.counts[f"{key}.validated"] += 1
            frame = tracer._open(layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._close(key, frame, t0, t1)
            if hook is not None:
                hook(tracer, key, args, result, t1 - t0)
            return result
        return traced

    def _wrap_generator(self, fn, key, layer):
        """One call per invocation; each resumption is a span of its own."""
        tracer = self

        def resume(gen):
            while True:
                frame = tracer._open(layer)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(key, frame, t0, time.perf_counter(),
                                  count=False)
                tracer.counts[f"{key}.homs"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            return resume(fn(*args, **kwargs))
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public library function in every binding namespace."""
        modules = {layer: sys.modules[f"groupoid_lab.{layer}"]
                   for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                key = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or key in UNWRAPPED):
                    continue
                wrapped[id(obj)] = self.wrap(obj, key, layer)
        for name, mod in list(sys.modules.items()):
            if name != "groupoid_lab" and not name.startswith("groupoid_lab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        base = modules["base"]
        for cls, attr, key in ((base.BaseObject, "__init__", "base.BaseObject"),
                               (base.BaseMorphism, "__init__",
                                "base.BaseMorphism"),
                               (base.LimitResult, "mediate",
                                "base.LimitResult.mediate")):
            setattr(cls, attr, self.wrap(getattr(cls, attr), key, "base"))

    # -- results -----------------------------------------------------------

    def metrics(self, passes, pass_wall_s):
        """Per-layer metrics per pass, keyed like ``metric_names``."""
        out = {}
        for layer, fns in REPORTED.items():
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = self.calls[key] / passes
                out[f"{key}.self_s"] = self.self_s[key] / passes
        for layer in LAYERS:
            total = sum(v for k, v in self.self_s.items()
                        if k.split(".", 1)[0] == layer)
            out[f"{layer}.self_s"] = total / passes
        for name in COUNTS:
            out[name] = self.counts[name] / passes
        out["harness.run_suite.slowest_s"] = self.slowest_suite[0]
        out["trace.wall_s"] = pass_wall_s
        return out

    def write(self, path, header):
        data = dict(header)
        data["functions"] = {k: {"calls": self.calls[k],
                                 "self_s": self.self_s[k]}
                             for k in sorted(self.calls)}
        data["counts"] = dict(sorted(self.counts.items()))
        data["slowest_run_suite"] = {"seconds": self.slowest_suite[0],
                                     "tag": self.slowest_suite[1]}
        data["verdicts"] = [{"tag": t, "start": a, "end": b}
                            for t, a, b in self.verdicts]
        data["span_fields"] = ["id", "parent", "name", "start", "end"]
        data["spans"] = [s for s in self.spans if s is not None]
        data["spans_dropped"] = self.spans_dropped
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


def _count_apex(tracer, key, args, result, seconds):
    tracer.counts[f"{key}.apex_elems"] += result.apex.size


def _count_squares(tracer, key, args, result, seconds):
    tracer.counts[f"{key}.squares"] += result.groupoid.B1.size
    base = args[0]
    seen = tracer._seen_arrow_bases
    if id(base) in seen:
        tracer.counts[f"{key}.rebuilds"] += 1
    else:
        seen[id(base)] = base    # keep it alive so its id stays unique


def _note_suite(tracer, key, args, result, seconds):
    if seconds > tracer.slowest_suite[0]:
        name, instance, _, seed = args
        tracer.slowest_suite = (seconds, f"{instance.name}:{name}:{seed}")


_HOOKS = {
    "base.pullback": _count_apex,
    "base.finite_limit": _count_apex,
    "holim.arrow_groupoid": _count_squares,
    "harness.run_suite": _note_suite,
}
