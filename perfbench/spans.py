"""Spans recorded around calls into the engine's public functions.

The server launcher wraps module functions and methods (``repro.sql``
parse, ``translate``, ``optimize``, ``plan_physical``, ``execute``,
``render_result``, the DML funnels, ``compact``, ``commit``) with
:meth:`SpanRecorder.wrap`.  Nothing under ``src/`` changes: the wrappers
replace attributes in the server process only, and only in a traced run.

A span records its name, start, end, the span that caused it and the
root span of its request.  The current span is thread-local; work the
server hands to its worker pool carries its parent along (see
:meth:`SpanRecorder.carry`).  Spans stay in memory until the benchmark
asks for them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional


class SpanRecorder:
    """Collects finished spans; one per traced call."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def current(self) -> Optional[tuple]:
        """``(span id, root id)`` of the calling thread's open span."""
        return getattr(self._local, "span", None)

    def take(self) -> List[Dict[str, Any]]:
        """Every span finished since the last reset, then reset."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def _open(self) -> tuple:
        parent = self.current()
        span_id = next(self._ids)
        root = parent[1] if parent is not None else span_id
        self._local.span = (span_id, root)
        return parent, span_id, root

    def _close(self, name, parent, span_id, root, start, end, attrs) -> None:
        self._local.span = parent
        record = {
            "id": span_id,
            "parent": parent[0] if parent is not None else None,
            "root": root,
            "name": name,
            "start": start,
            "end": end,
        }
        if attrs:
            record["attrs"] = attrs
        with self._lock:
            self.spans.append(record)

    def record_root(self, name: str, start: int, end: int, attrs: Dict[str, Any]) -> None:
        """Record a span caused by no request (a garbage collection)."""
        span_id = next(self._ids)
        record = {"id": span_id, "parent": None, "root": span_id, "name": name,
                  "start": start, "end": end, "attrs": attrs}
        with self._lock:
            self.spans.append(record)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        attrs: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call; ``attrs`` reads its result."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent, span_id, root = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                end = time.perf_counter_ns()
                self._close(name, parent, span_id, root, start, end, {"error": type(error).__name__})
                raise
            end = time.perf_counter_ns()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            self._close(name, parent, span_id, root, start, end, extra)
            return result

        return traced

    def wrap_enter(self, name: str, factory: Callable[..., Any]) -> Callable[..., Any]:
        """A context-manager factory whose ``__enter__`` records a span."""
        recorder = self

        @functools.wraps(factory)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return _TimedEnter(recorder, name, factory(*args, **kwargs))

        return traced

    def carry(self, work: Callable[[], Any]) -> Callable[[], Any]:
        """``work`` run under the caller's current span, on any thread."""
        parent = self.current()

        def carried() -> Any:
            previous = self.current()
            self._local.span = parent
            try:
                return work()
            finally:
                self._local.span = previous

        return carried


class _TimedEnter:
    def __init__(self, recorder: SpanRecorder, name: str, inner: Any):
        self._recorder = recorder
        self._name = name
        self._inner = inner

    def __enter__(self) -> Any:
        parent, span_id, root = self._recorder._open()
        start = time.perf_counter_ns()
        try:
            value = self._inner.__enter__()
        except BaseException as error:
            end = time.perf_counter_ns()
            self._recorder._close(
                self._name, parent, span_id, root, start, end, {"error": type(error).__name__}
            )
            raise
        self._recorder._close(self._name, parent, span_id, root, start, time.perf_counter_ns(), None)
        return value

    def __exit__(self, *exc: Any) -> Any:
        return self._inner.__exit__(*exc)


def aggregate(spans: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per span name: calls, inclusive and self nanoseconds, errors, attrs.

    Self time is a span's duration minus the durations of its direct
    children.  Numeric attributes are summed, except ``*_max`` ones,
    which keep their maximum.
    """
    spans = list(spans)
    child_ns: Dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] = child_ns.get(span["parent"], 0) + span["end"] - span["start"]
    out: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        entry = out.setdefault(
            span["name"], {"calls": 0, "ns": 0, "self_ns": 0, "errors": {}, "attrs": {}, "roots": 0}
        )
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["ns"] += duration
        entry["self_ns"] += duration - child_ns.get(span["id"], 0)
        if span["parent"] is None:
            entry["roots"] += 1
        for key, value in span.get("attrs", {}).items():
            if key == "error":
                entry["errors"][value] = entry["errors"].get(value, 0) + 1
            elif key.endswith("_max"):
                entry["attrs"][key] = max(entry["attrs"].get(key, value), value)
            elif isinstance(value, (int, float)):
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
    return out
