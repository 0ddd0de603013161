"""Span tracing by wrapping module attributes from outside the program.

A :class:`Tracer` replaces named functions and methods with wrappers that
record one span per call: name, start, end, parent span and a small summary
of the call (a count or two taken from its arguments or result). Spans are
kept in memory; :meth:`Tracer.uninstall` restores every original.

A wrapper sits on the name the caller looks up, so a module that imported a
function with ``from x import f`` is traced by wrapping ``f`` in that
module's namespace. A layer the caller stops reaching through the wrapped
name produces no spans, which the benchmark's stage-agreement check reports.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Span:
    name: str
    start: float        # perf_counter seconds
    end: float
    parent: int         # index of the enclosing span, -1 at top level
    info: Any = None    # summary returned by the layer's summarizer

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str,
             summarize: Optional[Callable[[tuple, Any], Any]] = None) -> None:
        """Trace calls to ``owner.attr`` (a module function or a method).

        ``summarize(args, result)`` runs after a successful call and its
        return value is stored as the span's ``info``.
        """
        original = owner.__dict__[attr]
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[idx] = Span(name, start, time.perf_counter(), parent)
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            info = summarize(args, result) if summarize is not None else None
            spans[idx] = Span(name, start, end, parent, info)
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def root(self, name: str):
        """Record a benchmark-side span around the ``with`` block."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
