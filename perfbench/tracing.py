"""In-memory span tracer for the traced benchmark runs.

Spans are recorded by wrapping public entry points of the program from
the benchmark's side (:meth:`Tracer.patch_function`,
:meth:`Tracer.patch_method`); nothing inside ``src/`` is changed.  Each
span records its name, start, end, parent span and request id; spans
of one thread nest through a thread-local stack, and a thread serving
another thread's request can adopt that request's span as its parent
(:meth:`Tracer.adopt`).  Spans stay in memory until :meth:`dump`.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request")

    def __init__(self, sid, name, start, parent, request):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    def to_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request}


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in intervals
                     if min(end, b) > max(start, a))
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of its
    children's intervals (children on other threads included)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.sid: (span.end - span.start)
            - covered(span.start, span.end, children.get(span.sid, ()))
            for span in spans}


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, summed ``total`` and summed ``self``
    seconds."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span.name,
                               {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += span.end - span.start
        entry["self"] += own[span.sid]
    return out


class Tracer:
    """Collects spans and counters; patches and restores entry points."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.failures: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- context ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def adopt(self, request, parent) -> None:
        """Make this thread's next root spans belong to ``request``
        with ``parent`` (a span id, possibly another thread's)."""
        self._local.request = request
        self._local.remote_parent = parent

    def current(self) -> tuple[object, int | None]:
        """(request id, innermost open span id) for this thread."""
        stack = self._stack()
        request = getattr(self._local, "request", None)
        if stack:
            return request, stack[-1].sid
        return request, getattr(self._local, "remote_parent", None)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def begin(self, name: str) -> Span:
        request, parent = self.current()
        span = Span(next(self._ids), name, self.clock(), parent, request)
        self._stack().append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, function, name, after=None):
        """``function`` wrapped in a span.  ``name`` is a string or a
        callable of the call's positional arguments; ``after(result,
        args, kwargs)`` runs once the call returned."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name(args) if callable(name) else name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                with tracer._lock:
                    tracer.failures[span.name] += 1
                raise
            finally:
                tracer.finish(span)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", "traced")
        return traced

    def hook(self, function, after):
        """``function`` with ``after(result, args, kwargs)`` run on
        return and no span: for calls too hot or too small to time."""

        def hooked(*args, **kwargs):
            result = function(*args, **kwargs)
            after(result, args, kwargs)
            return result

        hooked.__wrapped__ = function
        return hooked

    def patch_method(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def patch_function(self, module, attribute: str, make,
                       prefix: str = "repro") -> None:
        """Replace ``module.attribute`` by ``make(original)`` in every
        loaded module under ``prefix`` that imported it by name, so
        ``from x import f`` call sites see the wrapper too."""
        original = getattr(module, attribute)
        replacement = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == prefix
                                      or name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, key, original))
                    setattr(loaded, key, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
