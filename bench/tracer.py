"""In-process tracer for the kplab benchmark.

The tracer wraps the public functions of each kplab module from outside the
library and rebinds every name that refers to them, including the
``from .linalg import reduce_vector``-style copies held by importing modules
and the re-exports in ``kplab/__init__``.  Nothing in the library changes.

Two kinds of records are kept, both in memory until ``dump``:

* spans, one per call of a coarse entry point (``cli``, ``config``,
  ``incidence``, ``simplex`` and ``maximal`` functions) plus the spec and
  seed spans the benchmark opens itself.  A span has an id, a parent id, the
  id of the spec run it belongs to, start, duration and self time;
* per-span aggregates for the hot leaf kernels (``linalg``, ``flats`` and
  ``exponents`` functions, ``PowerProduct.compare``): call count, inclusive
  seconds and self seconds, attributed to the innermost open span.  These run
  about 10^6 times per pass, so they get no span of their own.

``Field`` methods are counted only, and generator functions count the items
they yield.  Self time is inclusive time minus the time of wrapped callees.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional

LAYERS = ("cli", "config", "flats", "linalg", "field", "incidence", "simplex", "maximal", "exponents")
SPAN_LAYERS = {"cli", "config", "incidence", "simplex", "maximal"}
TIMED_METHODS = (("exponents", "PowerProduct", "compare"),)
COUNTED_CLASSES = (("field", "Field"),)


class Span:
    __slots__ = ("id", "parent", "run", "name", "start", "dur", "self_s", "attrs", "leaf")

    def __init__(self, sid: int, parent: Optional[int], run: Optional[int], name: str, start: float):
        self.id = sid
        self.parent = parent
        self.run = run
        self.name = name
        self.start = start
        self.dur = 0.0
        self.self_s = 0.0
        self.attrs: Dict[str, object] = {}
        self.leaf: Dict[str, List[float]] = {}

    def as_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "run": self.run,
            "name": self.name,
            "start_s": self.start - origin,
            "dur_s": self.dur,
            "self_s": self.self_s,
            "attrs": self.attrs,
            "leaf": {k: {"calls": int(v[0]), "s": v[1], "self_s": v[2]} for k, v in self.leaf.items()},
        }


class Tracer:
    """Wraps kplab's public functions while installed; see the module doc."""

    def __init__(self, package):
        self.package = package
        self._restore: list = []
        # Wrappers hold these containers, so reset() clears them in place.
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._acc: List[float] = []
        self.counts: Counter = Counter()
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.origin = perf_counter()
        self.root = Span(0, None, None, "root", self.origin)
        self.spans.clear()
        self._stack[:] = [self.root]
        self._acc[:] = [0.0]
        self.counts.clear()
        self._next_id = 1
        self._run: Optional[int] = None
        self._next_run = 1

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1]
        if name == "spec":
            self._run = self._next_run
            self._next_run += 1
        span = Span(self._next_id, parent.id, self._run, name, perf_counter())
        self._next_id += 1
        span.attrs.update(attrs)
        self.spans.append(span)
        self._stack.append(span)
        self._acc.append(0.0)
        return span

    def close(self, span: Span) -> None:
        dur = perf_counter() - span.start
        child = self._acc.pop()
        self._acc[-1] += dur
        self._stack.pop()
        span.dur = dur
        span.self_s = dur - child
        if span.name == "spec":
            self._run = None

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, key: str):
        tracer = self
        post = _POST.get(key)

        def wrapper(*args, **kwargs):
            span = tracer.open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if post is not None:
                post(span, args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn, key: str):
        acc = self._acc
        stack = self._stack

        def wrapper(*args, **kwargs):
            acc.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = acc.pop()
                acc[-1] += dur
                agg = stack[-1].leaf.get(key)
                if agg is None:
                    stack[-1].leaf[key] = [1, dur, dur - child]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - child

        return wrapper

    def _gen_wrapper(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[key + ".yielded"] += n

        return wrapper

    def _count_wrapper(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _targets(self):
        """(original, wrapper) for every public function of each layer."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                if layer == "field":
                    wrapper = self._count_wrapper(obj, "field.ops.calls")
                elif inspect.isgeneratorfunction(obj):
                    wrapper = self._gen_wrapper(obj, key)
                elif layer in SPAN_LAYERS:
                    wrapper = self._span_wrapper(obj, key)
                else:
                    wrapper = self._leaf_wrapper(obj, key)
                out.append((obj, wrapper))
        return out

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        by_original = {id(orig): wrapper for orig, wrapper in self._targets()}
        prefix = self.package.__name__
        modules = [m for n, m in sorted(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        # Rebind every module-level name that refers to a wrapped function,
        # so copies made by `from .x import f` are caught too.
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = by_original.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        for layer, cls_name, meth in TIMED_METHODS:
            cls = getattr(sys.modules[f"{prefix}.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._leaf_wrapper(orig, f"{layer}.{cls_name}.{meth}"))
        for layer, cls_name in COUNTED_CLASSES:
            cls = getattr(sys.modules[f"{prefix}.{layer}"], cls_name)
            for meth, orig in list(cls.__dict__.items()):
                if meth.startswith("_") or not inspect.isfunction(orig):
                    continue
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._count_wrapper(orig, f"{layer}.ops.calls"))
        # The per-seed loop of the corpus kinds gets a "seed" span per item.
        cli = sys.modules[f"{prefix}.cli"]
        self._restore.append((cli, "_corpus", cli._corpus))
        cli._corpus = self._seed_span_wrapper(cli._corpus)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, orig = self._restore.pop()
            setattr(owner, name, orig)

    def _seed_span_wrapper(self, corpus):
        tracer = self

        def wrapper(params):
            it = corpus(params)
            while True:
                span = tracer.open("seed")
                try:
                    try:
                        seed, cfg = next(it)
                    except StopIteration:
                        return
                    span.attrs["seed"] = seed
                    yield seed, cfg
                finally:
                    tracer.close(span)

        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Flat ``<module>.<function>.<stat>`` totals over everything recorded
        since the last reset."""
        m: Counter = Counter(self.counts)
        for span in [self.root] + self.spans:
            for key, (calls, s, self_s) in span.leaf.items():
                m[key + ".calls"] += calls
                m[key + ".s"] += s
                m[key + ".self_s"] += self_s
        by_id = {span.id: span for span in self.spans}
        for span in self.spans:
            name = span.name
            m[name + ".calls"] += 1
            m[name + ".s"] += span.dur
            m[name + ".self_s"] += span.self_s
            for attr, value in span.attrs.items():
                if "." in attr:
                    m[attr] += value
            side = span.attrs.get("side")
            if side:
                m[f"{name}.{side}.calls"] += 1
                m[f"{name}.{side}.s"] += span.dur
            parent = by_id.get(span.parent)
            if name.startswith("config.gen_") and not (parent and parent.name.startswith("config.gen_")):
                m["config.gen.calls"] += 1
                m["config.gen.s"] += span.dur
            if name == "simplex.count_simplices":
                m["simplex.count_simplices.membership.calls"] += span.leaf.get("flats.membership", (0,))[0]
        membership = m["simplex.count_simplices.membership.calls"]
        m["simplex.apex_yield"] = m["simplex.apex_hits"] / membership if membership else 0.0
        m["cli.write.s"] = m["cli.write_csv.s"] + m["cli.write_json.s"]
        return dict(m)

    def dump(self, path) -> None:
        doc = {
            "spans": [s.as_dict(self.origin) for s in self.spans],
            "root_leaf": self.root.as_dict(self.origin)["leaf"],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _post_incidence_count(span, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    side = "enum" if config.field.p ** config.k <= len(config.points) else "probe"
    span.attrs["side"] = side
    span.attrs["incidence.incidences"] = result.total


def _post_apply_maximal(span, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    span.attrs["maximal.points_binned"] = len(f.values) * len(result)


def _post_count_simplices(span, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    span.attrs["simplex.simplices"] = result
    # Each simplex is found once per face, so (k+2)*simplices apexes succeed.
    span.attrs["simplex.apex_hits"] = (config.k + 2) * result


def _post_run_experiment(span, args, kwargs, result):
    span.attrs["cli.rows"] = len(result)


_POST = {
    "incidence.incidence_count": _post_incidence_count,
    "maximal.apply_maximal": _post_apply_maximal,
    "simplex.count_simplices": _post_count_simplices,
    "cli.run_experiment": _post_run_experiment,
}
