"""Per-module tracing of ncprob for the traced benchmark run.

``install()`` wraps every public function of the seven ncprob modules at
every name it is bound to (including names imported into other modules and
the package namespace), the public methods of ``FactorState`` and
``ProductSpace``, and the arithmetic dunders of ``ComplexRational``.

Most wrappers record a span (name, start, end, parent) into compact
arrays; ``leq``, ``is_noncrossing`` and the scalar dunders are called
millions of times, so they only count calls (the scalar wrappers also track
the largest bit length of a result).  ``dump(prefix)`` writes the spans and
counters when the run ends; ``load(prefix)`` reads them back and computes
per-name calls, self time and errors.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("scalar", "nc_lattice", "moment_space", "cumulant_calculus",
           "free_product", "verification", "cli")
COUNT_ONLY = {"nc_lattice.leq", "nc_lattice.is_noncrossing"}
SCALAR_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


class Trace:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.max_bits = 0

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def span(self, name: str, fn, post=None):
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, errors = self.span_start, self.span_end, self.stack, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        name = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def scalar_counter(self, fn):
        counts = self.counts
        trace = self

        @functools.wraps(fn)
        def wrapper(*args):
            counts["scalar.ops"] += 1
            result = fn(*args)
            if result is not NotImplemented:
                b = max(result.re.numerator.bit_length(), result.re.denominator.bit_length(),
                        result.im.numerator.bit_length(), result.im.denominator.bit_length())
                if b > trace.max_bits:
                    trace.max_bits = b
            return result

        return wrapper

    def dump(self, prefix: str) -> None:
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        meta = {"names": self.names, "spans": len(self.span_name),
                "counts": dict(self.counts), "errors": dict(self.errors),
                "max_bits": self.max_bits}
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def _add(trace: Trace, key: str, amount) -> None:
    trace.counts[key] += amount


def install() -> Trace:
    trace = Trace()
    pkg = importlib.import_module("ncprob")
    mods = {m: importlib.import_module(f"ncprob.{m}") for m in MODULES}
    posts = {
        "nc_lattice.enumerate_nc": lambda r: _add(trace, "nc_lattice.enumerate_nc.partitions", len(r)),
        "verification.check_freeness_moments": lambda r: _add(trace, "verification.checked_words", r.checked_words),
        "verification.check_freeness_cumulants": lambda r: _add(trace, "verification.checked_words", r.checked_words),
        "verification.check_positivity": lambda r: _add(trace, "verification.gram_size", r.gram.size),
    }
    replacements = {}
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            full = f"{short}.{name}"
            if full in COUNT_ONLY:
                replacements[id(obj)] = (obj, trace.counter(full, obj))
            else:
                replacements[id(obj)] = (obj, trace.span(full, obj, posts.get(full)))
    for namespace in [vars(m) for m in mods.values()] + [vars(pkg)]:
        for name, obj in list(namespace.items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                namespace[name] = hit[1]
    for cls, prefix in ((mods["moment_space"].FactorState, "moment_space"),
                        (mods["free_product"].ProductSpace, "free_product.ProductSpace")):
        for name, obj in list(vars(cls).items()):
            if not name.startswith("_") and inspect.isfunction(obj):
                setattr(cls, name, trace.span(f"{prefix}.{name}", obj))
    scalar_cls = mods["scalar"].ComplexRational
    for name in SCALAR_DUNDERS:
        setattr(scalar_cls, name, trace.scalar_counter(getattr(scalar_cls, name)))
    return trace


def load(prefix: str) -> dict:
    """Aggregate one dumped trace: {name: {calls, self_s, errors}}, counts, max_bits."""
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(prefix + ".spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    names, parents, starts, ends = arrays
    child = [0.0] * n
    for i in range(n - 1, -1, -1):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    per_name: dict[str, dict] = {}
    for i in range(n):
        entry = per_name.setdefault(meta["names"][names[i]], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += ends[i] - starts[i] - child[i]
    for name, count in meta["errors"].items():
        per_name.setdefault(name, {"calls": 0, "self_s": 0.0})["errors"] = count
    return {"spans": per_name, "counts": meta["counts"], "max_bits": meta["max_bits"]}
