"""Layer spans for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Spans.wrap` replaces
a function or method where it is looked up (a module attribute or a
class attribute) with a wrapper that records ``[name, start_ns, end_ns,
parent, iteration]`` in memory.  Hot boundaries get :meth:`Spans.count`
instead -- a call count and a total in ns, no record per call.
:meth:`Spans.restore` puts every original back.

The wrappers are compiled into a namespace named after the wrapped
function's module, so code that classifies stack frames by module (the
heat store's source attribution walks the stack past simulator frames)
sees the same stack with or without tracing.

A span's *self time* is its duration minus the time its direct children
cover.  :meth:`Spans.chrome_trace` renders the records as Chrome
trace-event JSON, which opens in Perfetto like the repo's
``timeline.json``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

_MISSING = object()

_SPAN_WRAPPER = """\
def wrapper(*args, **kwargs):
    rec = [name, 0, 0, stack[-1] if stack else -1, spans.iteration]
    stack.append(len(records))
    records.append(rec)
    rec[1] = clock()
    try:
        return original(*args, **kwargs)
    finally:
        rec[2] = clock()
        stack.pop()
"""

_COUNT_WRAPPER = """\
def wrapper(*args, **kwargs):
    start = clock()
    try:
        return original(*args, **kwargs)
    finally:
        entry = spans.counters[name]
        entry[0] += 1
        entry[1] += clock() - start
"""


class Spans:
    """In-memory span and counter recorder."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self.counters: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        #: counter totals per iteration: ``{iteration: {name: [calls, ns]}}``
        self.iter_counters: dict[int, dict[str, list[int]]] = {}
        self.iteration = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def start_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.counters = self.iter_counters.setdefault(
            iteration, defaultdict(lambda: [0, 0]))

    def call(self, name: str, fn: Callable, /, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        clock = time.perf_counter_ns
        stack = self._stack
        rec = [name, 0, 0, stack[-1] if stack else -1, self.iteration]
        stack.append(len(self.records))
        self.records.append(rec)
        rec[1] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = clock()
            stack.pop()

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _compile(self, template: str, original: Callable,
                 name: str) -> Callable:
        namespace = {
            "__name__": getattr(original, "__module__", None) or __name__,
            "original": original, "name": name, "spans": self,
            "stack": self._stack, "records": self.records,
            "clock": time.perf_counter_ns,
        }
        exec(template, namespace)
        return functools.wraps(original)(namespace["wrapper"])

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        self._patch(owner, attr, self._compile(
            _SPAN_WRAPPER, getattr(owner, attr), name))

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and their total ns (no spans)."""
        self._patch(owner, attr, self._compile(
            _COUNT_WRAPPER, getattr(owner, attr), name))

    def restore(self) -> None:
        """Undo every wrap/count, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # aggregation

    def per_iteration(self) -> dict[int, dict[str, list[float]]]:
        """``{iteration: {span name: [calls, self_s, total_s]}}``."""
        child_ns = [0] * len(self.records)
        for _, start, end, parent, _ in self.records:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict[int, dict[str, list[float]]] = {}
        for i, (name, start, end, _, iteration) in enumerate(self.records):
            row = table.setdefault(iteration, {}).setdefault(
                name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start - child_ns[i]) / 1e9
            row[2] += (end - start) / 1e9
        return table

    def chrome_trace(self, *, pid: int = 1, label: str = "") -> dict:
        """The records as Chrome trace-event JSON (complete events)."""
        origin = min((r[1] for r in self.records), default=0)
        events: list[dict] = [{"name": "process_name", "ph": "M", "pid": pid,
                               "tid": 1, "args": {"name": label or "bench"}}]
        for name, start, end, parent, iteration in self.records:
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "pid": pid, "tid": 1,
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "args": {"iteration": iteration,
                         "parent": self.records[parent][0]
                         if parent >= 0 else None},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
