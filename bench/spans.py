"""Tracing from outside the program: spans around every public function of
``cuspdim`` and counters read or computed at those boundaries.

``Tracer.install`` wraps each public function (the functions named in each
module's ``__all__``, plus the ``FracQSeries`` product, power and inverse)
in every module namespace that bound it by name, so calls between modules
go through the wrapper too.  Each call records a span (name, start, end,
parent) in flat in-memory arrays; ``write`` stores them at the end, and
``summarize`` derives self time per function: a span's duration minus the
durations of its direct children.

The counters that are not span counts are computed here from the calls'
arguments and results (marked ``computed`` in the output), or read from the
``lru_cache`` statistics.  The time spent computing them is itself recorded
as a ``trace.hook`` span, so it is taken out of the caller's self time.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import sys
import time
import types
from array import array
from collections import Counter, defaultdict
from fractions import Fraction

HOOK = "trace.hook"

# Counters computed from arguments and results rather than counted as calls.
COMPUTED = (
    "exact.dedekind_sum.modulus_sum",
    "gamma0.cusp_classes_built",
    "multiplier.verify_transformation.max_precision",
    "oracle.cosets_enumerated",
    "qseries.evaluate.terms",
    "qseries.mul.coeff_products",
)


def _frac_gcd(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(
        math.gcd(x.numerator * y.denominator, y.numerator * x.denominator),
        x.denominator * y.denominator,
    )


def coeff_products(left, right) -> int:
    """Coefficient products FracQSeries.__mul__ performs for two series:
    pairs of nonzero terms whose product lands inside the retained range."""
    step = _frac_gcd(left.step, right.step)
    m1 = int(left.step / step)
    m2 = int(right.step / step)
    count = int(min(left.precision * left.step, right.precision * right.step) / step)
    right_pos = [j * m2 for j, _, _ in right.support()]
    total = 0
    for i, _, _ in left.support():
        base = i * m1
        if base >= count:
            break
        total += bisect.bisect_left(right_pos, count - base)
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.computed: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.rules: Counter = Counter()
        self._classified: set = set()
        self.caches: dict[str, object] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, before=None, after=None):
        nid = self._id(name)
        hook_id = self._id(HOOK)
        starts, ends, names, parents, stack = (
            self.start, self.end, self.name, self.parent, self.stack
        )
        clock = time.perf_counter

        # Two variants, so that the many calls without a hook pay for no
        # hook handling.
        if after is None:

            def wrapper(*args, **kwargs):
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()

        else:

            def wrapper(*args, **kwargs):
                state = before() if before else None
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
                h0 = clock()
                after(args, result, state)
                names.append(hook_id)
                parents.append(stack[-1])
                starts.append(h0)
                ends.append(clock())
                return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _hooks(self, name: str, fn):
        """(before, after) for the functions whose counters are computed."""
        c = self.computed
        if name == "gamma0.cusps":

            def after(args, result, misses):
                if fn.cache_info().misses > misses:
                    c["gamma0.cusp_classes_built"] += len(result)

            return (lambda: fn.cache_info().misses), after
        if name == "exact.dedekind_sum":
            return None, lambda args, result, _: c.update({"exact.dedekind_sum.modulus_sum": args[1]})
        if name == "oracle.oracle_cusps":
            return None, lambda args, result, _: c.update(
                {"oracle.cosets_enumerated": sum(o.width for o in result)}
            )
        if name == "oracle.enumerate_cosets":
            return None, lambda args, result, _: c.update({"oracle.cosets_enumerated": len(result)})
        if name == "qseries.mul":

            def after(args, result, _):
                left, right = args
                if hasattr(right, "support"):
                    c["qseries.mul.coeff_products"] += coeff_products(left, right)

            return None, after
        if name == "qseries.evaluate":
            return None, lambda args, result, _: c.update(
                {"qseries.evaluate.terms": len(args[0].support())}
            )
        if name == "multiplier.verify_transformation":

            def after(args, result, _):
                key = "multiplier.verify_transformation.max_precision"
                self.maxima[key] = max(self.maxima.get(key, 0), result.precision)

            return None, after
        if name == "classify.classify":

            def after(args, result, _):
                if result.level not in self._classified:
                    self._classified.add(result.level)
                    self.rules[result.rule] += 1

            return None, after
        return None, None

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items()
            if key.startswith("cuspdim.") and m is not None
        ]
        originals: dict[int, object] = {}
        for m in modules:
            short = m.__name__.split(".", 1)[1]
            for attr, obj in vars(m).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == m.__name__:
                    self.caches[f"{short}.{attr}"] = obj
            for attr in getattr(m, "__all__", ()):
                obj = getattr(m, attr)
                is_function = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
                if is_function and obj.__module__ == m.__name__:
                    name = f"{short}.{attr}"
                    before, after = self._hooks(name, obj)
                    originals[id(obj)] = self._wrap(obj, name, before, after)
        for m in modules + [sys.modules["cuspdim"]]:
            for attr, obj in list(vars(m).items()):
                if id(obj) in originals:
                    setattr(m, attr, originals[id(obj)])

        series_cls = sys.modules["cuspdim.qseries"].FracQSeries
        for attrs, name in ((("__mul__", "__rmul__"), "qseries.mul"),
                            (("__pow__",), "qseries.pow"),
                            (("inverse",), "qseries.inverse")):
            before, after = self._hooks(name, None)
            wrapped = self._wrap(getattr(series_cls, attrs[0]), name, before, after)
            for attr in attrs:
                setattr(series_cls, attr, wrapped)

    def write(self, path: str, stdout_bytes: int) -> None:
        """Spans go to ``path + '.bin'`` (start, end as float64; name,
        parent as int32, one array after the other); everything else to
        ``path + '.json'``."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(fh)
        caches = {}
        for name, fn in sorted(self.caches.items()):
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        meta = {
            "names": self.names,
            "spans": len(self.start),
            "caches": caches,
            "computed": dict(self.computed) | self.maxima,
            "rules": dict(self.rules),
            "stdout_bytes": stdout_bytes,
        }
        with open(path + ".json", "w") as fh:
            json.dump(meta, fh)


def summarize(path: str) -> dict:
    """Per-function calls and self time from a written trace, plus the
    counters stored with it."""
    with open(path + ".json") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    start, end, name, parent = array("d"), array("d"), array("i"), array("i")
    with open(path + ".bin", "rb") as fh:
        for arr in (start, end, name, parent):
            arr.fromfile(fh, n)
    dur = [e - s for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    calls: Counter = Counter(name)
    self_s: dict[int, float] = defaultdict(float)
    for i, k in enumerate(name):
        self_s[k] += own[i]
    names = meta["names"]
    meta["functions"] = {
        names[k]: {"calls": calls[k], "self_s": self_s[k]} for k in calls
    }
    return meta
