"""Per-layer tracing of in-process CLI runs, from outside the program.

`Tracer.install()` replaces the entry points of every ekrlab layer with
timing wrappers and `uninstall()` puts the originals back; no file under
`src/` changes.  A function is replaced everywhere it is bound by name (the
CLI and `verify` do `from .measures import mu, ...`), methods are replaced
on their class, and generators are timed per `next()`, so the consumer's
work between items is not charged to the generator.  `mpmath.log` and
`mpmath.power` count as the real layer because the CLI calls them directly.

Each call becomes a span (name, start, end, parent) kept in flat arrays; a
layer's self time is the time its spans are open minus the time their
child spans are open.  `bitops` and `report` are not wrapped: their helpers
are too small to time per call, so their time counts to the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

#: module -> layer for modules whose public functions and classes are wrapped
MODULE_LAYERS = {
    "ekrlab.measures": "measures",
    "ekrlab.numerics": "numerics",
    "ekrlab.verify": "verify",
    "ekrlab.families": "families",
    "ekrlab.io": "io",
    "ekrlab.zoo": "zoo",
    "ekrlab.shadows": "shadows",
    "ekrlab.search": "search",
}

#: kernel dispatch functions (called as `_kernels.<name>`) -> layer
KERNEL_LAYERS = {
    "monotone_masks": "kernels.enumerate",
    "iter_predicate_families": "kernels.enumerate",
    "weight_counts": "kernels.count",
    "weight_pivot_counts": "kernels.count",
    "search_uniform": "kernels.search",
}

#: dunder methods wrapped besides public ones (construction, evaluation and
#: the polynomial arithmetic the CLI's Russo check does itself)
DUNDERS = ("__init__", "__call__", "__add__", "__eq__")

LAYERS = ("cli", "cli.output", "kernels.enumerate", "kernels.count",
          "kernels.search", "search", "measures", "numerics",
          "verify.nearest", "verify", "families", "io", "zoo", "shadows")


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.labels: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[list] = []
        self.self_s = [0.0] * len(self.labels)
        self.calls = [0] * len(self.labels)
        self.counts.clear()

    def _id(self, layer: str, label: str) -> int:
        key = f"{layer}:{label}"
        if key not in self._ids:
            self._ids[key] = len(self.labels)
            self.labels.append(key)
            self.layer_of.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[key]

    # -- wrappers -------------------------------------------------------------

    def span(self, layer: str, label: str, fn, after=None):
        """`fn` wrapped so each call is one span; `after(args, kwargs,
        result)` runs once the span has closed."""
        nid = self._id(layer, label)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            tracer.start.append(t0)
            tracer.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer.end[idx] = t1
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.self_s[nid] += t1 - t0 - frame[1]
                tracer.calls[nid] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def generator(self, layer: str, label: str, fn, counter=None):
        """Generator function `fn` wrapped so each `next()` is one span.
        Calls count to `<counter>.calls`, items to `<counter>.families`."""
        advance = self.span(layer, label, next)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter:
                counts[counter + ".calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = advance(it)
                except StopIteration:
                    return
                if counter:
                    counts[counter + ".families"] += 1
                yield item

        return traced

    def wrap(self, layer: str, label: str, fn, after=None, counter=None):
        if inspect.isgeneratorfunction(fn):
            return self.generator(layer, label, fn, counter)
        return self.span(layer, label, fn, after)

    # -- hooks for counters ---------------------------------------------------

    def _after_check_le(self, numerics):
        counts = self.counts

        def after(args, kwargs, checked):
            start = kwargs.get("dps", args[3] if len(args) > 3 else None)
            start = numerics.default_dps() if start is None else start
            counts["numerics.retries"] += round(math.log2(checked.dps / start))
            counts["numerics.inexact_checks"] += not checked.exact

        return after

    def _after_masks(self, args, kwargs, masks):
        self.counts["kernels.enumerate.calls"] += 1
        self.counts["kernels.enumerate.families"] += len(masks)

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points in all loaded ekrlab modules."""
        import mpmath

        from ekrlab import _kernels, cli, numerics

        plan: dict[int, object] = {}

        def add(fn, layer, label, **kw):
            plan[id(fn)] = (fn, self.wrap(layer, label, fn, **kw))

        for modname, layer in MODULE_LAYERS.items():
            mod = sys.modules[modname]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    sub = ("verify.nearest" if name.startswith("nearest_")
                           else layer)
                    after = (self._after_check_le(numerics)
                             if obj is numerics.check_le else None)
                    add(obj, sub, name, after=after)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for name, layer in KERNEL_LAYERS.items():
            fn = getattr(_kernels, name)
            if name == "monotone_masks":
                add(fn, layer, name, after=self._after_masks)
            elif name == "iter_predicate_families":
                add(fn, layer, name, counter=layer)
            else:
                add(fn, layer, name)
        add(cli.main, "cli", "main")
        add(cli._emit, "cli.output", "_emit")
        add(cli._print_csv, "cli.output", "_print_csv")
        add(mpmath.log, "numerics", "mpmath.log")
        add(mpmath.power, "numerics", "mpmath.power")

        mods = [m for n, m in list(sys.modules.items())
                if n == "ekrlab" or n.startswith("ekrlab.")] + [mpmath]
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                hit = plan.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                new = type(attr)(self.wrap(layer, label, attr.__func__))
            elif inspect.isfunction(attr):
                new = self.wrap(layer, label, attr)
            else:
                continue
            self._patch(cls, name, new)

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> tuple[dict, dict]:
        """(self seconds, span count) per layer."""
        secs = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for nid, layer in enumerate(self.layer_of):
            secs[layer] += self.self_s[nid]
            calls[layer] += self.calls[nid]
        return secs, calls

    def write(self, path: Path) -> None:
        """Spans as `<path>.json` (names, count) plus `<path>.bin`: four
        native-endian arrays of the span count each, in the order name id
        (int32), parent span index (int32, -1 at a root), start and end
        (float64 seconds from `time.perf_counter`)."""
        meta = {"labels": self.labels, "spans": len(self.start),
                "byteorder": sys.byteorder,
                "arrays": ["name:int32", "parent:int32", "start:float64",
                           "end:float64"]}
        path.with_suffix(".json").write_text(json.dumps(meta))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
