"""In-memory span recording by wrapping public functions from outside.

Shared by the traced server processes (through this directory's
``sitecustomize``) and the traced load generator.  A span is one call
of a wrapped function::

    [id, name, start_ns, end_ns, parent_id, trace_id, count, nbytes, tag]

``parent_id`` is the enclosing wrapped call on the same thread (-1 at
top level) and ``trace_id`` is the request's wire trace id, taken from
the call's arguments or result, else inherited from the parent.  Times
are ``time.monotonic_ns()``: CLOCK_MONOTONIC is one clock for every
process on the host, so spans of one request join across the
generator, the router and the worker by trace id.

Spans stay in memory; :meth:`SpanRecorder.dump` writes them as JSON
lines (atomically, through a rename) when the harness asks.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Callable, List, Optional

#: positions in a span record
ID, NAME, START, END, PARENT, TRACE, COUNT, NBYTES, TAG = range(9)


class SpanRecorder:
    """Collects the spans of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        trace_in: Optional[Callable[..., Optional[str]]] = None,
        trace_out: Optional[Callable[[Any], Optional[str]]] = None,
        count_of: Optional[Callable[..., int]] = None,
        size_of: Optional[Callable[..., int]] = None,
        tag_of: Optional[Callable[..., Optional[str]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``trace_in(args, kwargs)`` / ``trace_out(result)`` find the
        call's trace id; ``count_of(args, kwargs, result)`` the work it
        did (pairs, events, bytes); ``size_of(args)`` is sampled before
        and after the call and the growth kept as ``nbytes``;
        ``tag_of(args, kwargs)`` labels the span (the op name).
        """
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.monotonic_ns

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            trace = trace_in(args, kwargs) if trace_in else None
            if trace is None and parent is not None:
                trace = parent[TRACE]
            span = [
                next(ids), name, 0, 0,
                parent[ID] if parent is not None else -1,
                trace, 0, 0,
                tag_of(args, kwargs) if tag_of else None,
            ]
            before = size_of(args) if size_of else 0
            stack.append(span)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                spans.append(span)
            if trace_out is not None and span[TRACE] is None:
                span[TRACE] = trace_out(result)
            if count_of is not None:
                span[COUNT] = count_of(args, kwargs, result)
            if size_of is not None:
                span[NBYTES] = size_of(args) - before
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        """Write every finished span as JSON lines, atomically."""
        staged = path + ".tmp"
        with open(staged, "w", encoding="utf-8") as handle:
            for span in list(self.spans):
                handle.write(json.dumps(span) + "\n")
        os.replace(staged, path)


def load_spans(path: str) -> List[list]:
    """Read a file written by :meth:`SpanRecorder.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
