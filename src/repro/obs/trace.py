"""Per-query distributed tracing: spans, the active-trace thread-local, and
renderers.

Every statement gets a ``query_id`` and a :class:`QueryTrace` — a tree of
:class:`Span` nodes (parse → bind → optimize → execute → per-operator) with
row/batch/byte attributes.  Traces serialize to plain dicts so shard engines
can return them inside wire ``done`` frames; the coordinator re-hydrates
them with :meth:`Span.from_dict` and stitches them under its own scatter
span, producing one tree for the whole distributed query.

The tracing primitives are deliberately cheap when idle: :func:`span` reads
one thread-local and yields immediately when no trace is active, so code in
hot paths can be instrumented unconditionally.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


def new_query_id() -> str:
    """A fresh 12-hex-digit query identifier."""
    return uuid.uuid4().hex[:12]


class Span:
    """One timed node in a query's span tree."""

    __slots__ = ("name", "duration_s", "attrs", "children", "_start")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.duration_s = 0.0
        self.attrs: Dict[str, Any] = {k: v for k, v in attrs.items()
                                      if v is not None}
        self.children: List["Span"] = []
        self._start: Optional[float] = None

    def add_child(self, child: "Span") -> "Span":
        self.children.append(child)
        return child

    def find(self, name: str) -> Optional["Span"]:
        """The first span called ``name`` in this subtree (pre-order), or None."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def to_dict(self) -> dict:
        payload: Dict[str, Any] = {
            "name": self.name,
            "duration_s": round(self.duration_s, 6),
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(str(data.get("name", "?")))
        span.duration_s = float(data.get("duration_s", 0.0))
        span.attrs = dict(data.get("attrs") or {})
        span.children = [cls.from_dict(child)
                         for child in data.get("children") or []]
        return span


class QueryTrace:
    """The span tree of one statement, rooted at a ``statement`` span."""

    def __init__(self, query_id: Optional[str] = None,
                 text: Optional[str] = None) -> None:
        self.query_id = query_id or new_query_id()
        self.text = text
        self.root = Span("statement")

    @property
    def duration_s(self) -> float:
        return self.root.duration_s

    def find(self, name: str) -> Optional[Span]:
        """The first span called ``name`` (see :meth:`Span.find`), or None."""
        return self.root.find(name)

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "text": self.text,
            "root": self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueryTrace":
        trace = cls(query_id=data.get("query_id"), text=data.get("text"))
        trace.root = Span.from_dict(data.get("root") or {"name": "statement"})
        return trace

    def render(self) -> str:
        return render_trace(self)


# ======================================================================================
# The active trace (thread-local)
# ======================================================================================

_ACTIVE = threading.local()


def current_trace() -> Optional[QueryTrace]:
    return getattr(_ACTIVE, "trace", None)


def current_span() -> Optional[Span]:
    stack = getattr(_ACTIVE, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def activate(trace: QueryTrace, started: Optional[float] = None) -> Iterator[QueryTrace]:
    """Make ``trace`` the calling thread's active trace; times the root span
    (from ``started``, a ``perf_counter`` reading, when the statement's work
    began before its trace could be opened)."""
    previous_trace = getattr(_ACTIVE, "trace", None)
    previous_stack = getattr(_ACTIVE, "stack", None)
    _ACTIVE.trace = trace
    _ACTIVE.stack = [trace.root]
    start = time.perf_counter() if started is None else started
    try:
        yield trace
    finally:
        trace.root.duration_s = time.perf_counter() - start
        _ACTIVE.trace = previous_trace
        _ACTIVE.stack = previous_stack


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """A timed child of the current span; a cheap no-op when not tracing."""
    stack = getattr(_ACTIVE, "stack", None)
    if not stack:
        yield None
        return
    node = Span(name, **attrs)
    stack[-1].add_child(node)
    stack.append(node)
    start = time.perf_counter()
    try:
        yield node
    finally:
        node.duration_s = time.perf_counter() - start
        stack.pop()


def record_span(name: str, duration_s: float = 0.0, **attrs: Any) -> Optional[Span]:
    """Attach an already-measured span to the current span (no-op when idle)."""
    stack = getattr(_ACTIVE, "stack", None)
    if not stack:
        return None
    node = Span(name, **attrs)
    node.duration_s = duration_s
    return stack[-1].add_child(node)


def annotate(**attrs: Any) -> None:
    """Set attributes on the calling thread's current span (no-op when idle)."""
    stack = getattr(_ACTIVE, "stack", None)
    if not stack:
        return
    stack[-1].attrs.update(
        {k: v for k, v in attrs.items() if v is not None}
    )


# ======================================================================================
# Rendering
# ======================================================================================


def _format_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    return "  [" + " ".join(f"{k}={attrs[k]}" for k in sorted(attrs)) + "]"


def _render_span(span_node: Span, prefix: str, is_last: bool,
                 lines: List[str]) -> None:
    connector = "└─ " if is_last else "├─ "
    lines.append(
        f"{prefix}{connector}{span_node.name}  "
        f"{span_node.duration_s * 1000:.3f}ms"
        f"{_format_attrs(span_node.attrs)}"
    )
    child_prefix = prefix + ("   " if is_last else "│  ")
    for index, child in enumerate(span_node.children):
        _render_span(child, child_prefix, index == len(span_node.children) - 1,
                     lines)


def render_trace(trace: QueryTrace) -> str:
    """The flame-style text tree of a trace (used by explain/``\\trace``)."""
    header = f"TRACE {trace.query_id}"
    if trace.text:
        text = " ".join(trace.text.split())
        if len(text) > 60:
            text = text[:57] + "..."
        header += f"  {text}"
    lines = [header]
    root = trace.root
    lines.append(
        f"└─ {root.name}  {root.duration_s * 1000:.3f}ms"
        f"{_format_attrs(root.attrs)}"
    )
    for index, child in enumerate(root.children):
        _render_span(child, "   ", index == len(root.children) - 1, lines)
    return "\n".join(lines)


def render_trace_dict(data: dict) -> str:
    """Render a serialized trace (e.g. from a wire ``done`` frame)."""
    return render_trace(QueryTrace.from_dict(data))
