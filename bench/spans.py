"""Tracing from outside the program: wrappers around the public functions of
each ``mzdephase`` module record spans (name, start, end, parent) in memory.

Wrappers are installed on every module attribute that names a package
function, i.e. on the name where the caller looks it up, so calls made inside
the package are recorded too.  A span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import enum
import functools
import inspect
import math
import statistics
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "mzdephase"
MODULES = ("core", "channels", "interferometer", "maps", "analysis", "oracle",
           "cli", "_intervals")


class SpanRecorder:
    """Spans in flat arrays: 24 bytes each, so millions fit in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._open = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording one span per call; ``count(args, kwargs)``, if
        given, adds to the counter of the same name."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(math.nan)
            stack.append(sid)
            if count is not None:
                self.counters[name] = self.counters.get(name, 0) + count(args, kwargs)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        return traced

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=dur, minlength=width)
        own = np.bincount(name, weights=dur - child, minlength=width)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _traceable_class(cls) -> bool:
    return not issubclass(cls, (BaseException, enum.Enum, tuple))


def install(recorder: SpanRecorder, package, counters=None):
    """Wrap the public functions, methods and constructors of the package
    modules; returns a function that puts the originals back.

    Span names are ``<module>.<qualname>`` of the defining module, with
    ``<module>.<Class>`` for construction.  ``counters`` maps span names to
    ``count(args, kwargs)`` callables.
    """
    counters = counters or {}
    undo = []
    wrapped: dict[int, object] = {}

    def span_name(fn):
        return f"{fn.__module__.removeprefix(PACKAGE + '.')}.{fn.__qualname__}"

    def traced(fn, name=None):
        if id(fn) not in wrapped:
            name = name or span_name(fn)
            wrapped[id(fn)] = recorder.wrap(fn, name, counters.get(name))
        return wrapped[id(fn)]

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    modules = [getattr(package, m) for m in MODULES]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not getattr(obj, "__module__", "").startswith(PACKAGE):
                continue
            if inspect.isfunction(obj):
                patch(mod, attr, traced(obj))
            elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and _traceable_class(obj)):
                for name, member in list(vars(obj).items()):
                    if name == "__init__" and inspect.isfunction(member):
                        short = obj.__module__.removeprefix(PACKAGE + ".")
                        patch(obj, name, traced(member, f"{short}.{obj.__qualname__}"))
                    elif name.startswith("_"):
                        continue
                    elif isinstance(member, classmethod):
                        patch(obj, name, classmethod(traced(member.__func__)))
                    elif isinstance(member, staticmethod):
                        patch(obj, name, staticmethod(traced(member.__func__)))
                    elif inspect.isfunction(member):
                        patch(obj, name, traced(member))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values) -> tuple[float, float] | None:
    """(q, value) for the highest of the 90th, 99th and 99.9th percentiles
    that has at least ten samples beyond it; None below forty samples."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    best = None
    for q in (90.0, 99.0, 99.9):
        if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            rank = math.ceil(q * n / 100.0 - 1e-9)
            best = (q, float(ordered[rank - 1]))
    return best
