"""Spans around the public functions of the resflat modules, from outside.

``Tracer`` rebinds every public function of every resflat namespace
(``MODULES``) to a wrapper, and restores the original objects when it is
removed.  A function bound in several namespaces (``collinear_normal_form``
lives in ``core`` and is imported into ``decide``, ``graphs``, ``surfaces``
and the package) gets one wrapper, bound everywhere, so a call is seen
whichever name it goes through.  Spans are named after the defining module:
``core.cross``.

A span is a tuple ``(name, start, end, parent, request)``; ``parent`` is the
index of the enclosing span, or -1.  Spans stay in memory until ``write``.
The hottest functions (``COUNT_ONLY``) are counted but get no span.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import ModuleType

import resflat
import resflat.cli
import resflat.core
import resflat.decide
import resflat.graphs
import resflat.surfaces

PACKAGE = "resflat"
MODULES = (resflat, resflat.core, resflat.decide, resflat.graphs, resflat.surfaces, resflat.cli)

COUNT_ONLY = frozenset(
    {"core.cross", "core.dot", "core.arg_cmp", "graphs.leaf_removal", "graphs.is_connection_graph"}
)


def span_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


def public_functions(module: ModuleType):
    """(attribute, function) pairs of the package's functions bound in module."""
    for attr, obj in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__.startswith(PACKAGE + ".")
        ):
            yield attr, obj


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.calls: Counter = Counter()
        #: Calls whose result was neither None nor False: found, accepted.
        self.found: Counter = Counter()
        #: (span name, exception class name) for exceptions leaving a call.
        self.raised: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for module in MODULES:
            for attr, func in list(public_functions(module)):
                if func not in wrappers:
                    wrappers[func] = self._wrap(func)
                self._saved.append((module, attr, func))
                setattr(module, attr, wrappers[func])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved.clear()

    def _wrap(self, func):
        name = span_name(func)
        calls, found, raised = self.calls, self.found, self.raised
        if name in COUNT_ONLY:

            @functools.wraps(func)
            def counted(*args, **kwargs):
                calls[name] += 1
                result = func(*args, **kwargs)
                if result is not None and result is not False:
                    found[name] += 1
                return result

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                raised[name, type(exc).__name__] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if result is not None and result is not False:
                found[name] += 1
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def write(self, path: Path) -> None:
        """One tab-separated line per span: index, name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration not covered by child spans."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return dict(out)
