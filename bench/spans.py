"""Spans and counters for the traced benchmark run.

The tracer wraps the public functions of every balpack module from
outside the package, in every balpack namespace that holds them
(``sumcode.max_pairwise_intersection``, ``cli.verify``, ``balpack.verify``
and ``core.discrepancy`` as ``verify`` looks it up are all the same
wrapper).  Each wrapped call becomes a span: name, start, end, parent and
job id, kept in memory and written once when the child process ends.

Self time is computed as each call returns: its duration minus the time
covered by wrapped calls made inside it.  The hot leaf functions in
``COUNTED`` (one call per block or per field operation) add only to a
call count and a time total instead of one record per call, which keeps
the traced run's memory small; their time still counts as covered in
the caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = (
    "cli", "core", "bounds", "gf", "latin", "factorization",
    "transversal", "babai_frankl", "sumcode", "oracle",
)

COUNTED = frozenset({
    "core.discrepancy",
    "gf.add", "gf.sub", "gf.mul", "gf.pow", "gf.index_of", "gf.element_at",
    "gf.zero", "gf.one", "gf.xi", "gf.discrete_index",
})


def _text_bytes(args, result):
    return len(args[0])


def _result_bytes(args, result):
    return len(result)


# functions whose input or output size is recorded, and how
MEASURED = {"core.parse_document": _text_bytes, "core.to_json": _result_bytes}


class Tracer:
    """Span and counter store of one child process."""

    def __init__(self, job):
        self.job = job
        self.spans = []  # (id, name, start, end, parent id, job, self seconds)
        self.counts = {}  # counted name -> [calls, seconds, self seconds]
        self.bytes = {}  # measured name -> bytes
        self._stack = []  # open calls: [span id (inherited by counted calls), covered seconds]
        self._next_id = 0
        self._caches = {}  # name -> (lru_cache wrapper, its misses at install)

    def record(self, name, start, end):
        """Add a span measured by the caller (no children)."""
        self.spans.append((self._next_id, name, start, end, None, self.job, end - start))
        self._next_id += 1

    def wrap(self, name, fn):
        counted = name in COUNTED
        measure = MEASURED.get(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if counted:
                frame = [parent, 0.0]
            else:
                frame = [self._next_id, 0.0]
                self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s = duration - frame[1]
                if counted:
                    entry = self.counts.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += self_s
                else:
                    self.spans.append((frame[0], name, start, end, parent, self.job, self_s))
            if measure is not None:
                self.bytes[name] = self.bytes.get(name, 0) + measure(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public function defined in a balpack module, in every
        balpack namespace that imported it, plus ``BalancedPacking``'s
        validation.  The modules must already be imported."""
        modules = {name: sys.modules[f"balpack.{name}"] for name in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self.wrap(name, obj))
                if hasattr(obj, "cache_info"):
                    self._caches[name] = (obj, obj.cache_info().misses)
        for namespace in [sys.modules["balpack"], *modules.values()]:
            for attr, obj in list(vars(namespace).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(namespace, attr, hit[1])
        packing = modules["core"].BalancedPacking
        packing.__post_init__ = self.wrap(
            "core.BalancedPacking.validate", packing.__post_init__)

    def dump(self, path):
        misses = {name: fn.cache_info().misses - before
                  for name, (fn, before) in self._caches.items()}
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "bytes": self.bytes, "misses": misses}, fh)


def summarize(dump: dict, totals: dict) -> None:
    """Add one child's spans and counters into ``totals``:
    name -> {"calls", "s", "self_s"}, plus "bytes" and "misses" entries."""
    for _, name, start, end, _, _, self_s in dump["spans"]:
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += self_s
    for name, (calls, seconds, self_s) in dump["counts"].items():
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += calls
        entry["s"] += seconds
        entry["self_s"] += self_s
    for key in ("bytes", "misses"):
        for name, value in dump[key].items():
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry[key] = entry.get(key, 0) + value


def layer_self(totals: dict) -> dict:
    """Self seconds per layer (the module prefix of each span name)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, entry in totals.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += entry["self_s"]
    return out
