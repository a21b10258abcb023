"""Sim-time tracing: spans with parent/child links and per-flow trace ids.

A :class:`Tracer` follows one logical operation across layers the way the
paper's operators chase an incident across services: a path lookup traces
daemon -> path server -> segment registry -> combinator, a beacon traces
origination -> per-hop propagation -> registration, and a data packet
traces each border-router hop to delivery (or to the SCMP error path).

Two parenting styles coexist:

* **stack-based** (``with tracer.span("daemon.lookup"): ...``) for layers
  that call each other synchronously — children attach to the innermost
  open span, so intermediate layers need no plumbing;
* **explicit** (``tracer.add(name, parent=span)``) for flows whose hops do
  not nest on the call stack — beacon propagation rounds and event-driven
  packet hops — recorded as instant spans linked to a kept parent handle.

All ids are deterministic counters and all times are simulated seconds, so
two seeded runs produce identical traces.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed operation inside a trace."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start_s: float
    end_s: Optional[float] = None
    status: str = "ok"
    attrs: Dict[str, str] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    def duration_s(self) -> float:
        return (self.end_s or self.start_s) - self.start_s


class Tracer:
    """Collects spans on a monotonic simulated clock."""

    enabled = True

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        #: High-water mark of simulated time seen by the tracer; spans
        #: without an explicit ``now`` inherit it, keeping child intervals
        #: inside their parents even for layers with no clock of their own.
        self.clock = 0.0

    # -- clock -------------------------------------------------------------------

    def advance(self, now: Optional[float]) -> float:
        if now is not None and now > self.clock:
            self.clock = now
        return self.clock

    # -- span lifecycle ----------------------------------------------------------

    def _new_span(self, name: str, parent: Optional[Span], start: float,
                  attrs: Dict[str, str]) -> Span:
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = f"trace-{next(self._trace_ids):04d}"
            parent_id = None
        span = Span(
            trace_id=trace_id,
            span_id=f"span-{next(self._span_ids):06d}",
            parent_id=parent_id,
            name=name,
            start_s=start,
            attrs=attrs,
        )
        self._spans.append(span)
        return span

    def begin(self, name: str, now: Optional[float] = None,
              **attrs: object) -> Span:
        """Open a span under the innermost open span (or a new trace)."""
        start = self.advance(now)
        parent = self._stack[-1] if self._stack else None
        span = self._new_span(
            name, parent, start, {k: str(v) for k, v in attrs.items()}
        )
        self._stack.append(span)
        return span

    def end(self, span: Span, now: Optional[float] = None,
            status: str = "ok") -> None:
        span.end_s = self.advance(now)
        span.status = status
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @contextmanager
    def span(self, name: str, now: Optional[float] = None,
             **attrs: object) -> Iterator[Span]:
        handle = self.begin(name, now=now, **attrs)
        try:
            yield handle
        except BaseException:
            self.end(handle, status="error")
            raise
        else:
            self.end(handle)

    def open(self, name: str, now: Optional[float] = None,
             **attrs: object) -> Span:
        """Open a span under the innermost open span (or a new trace),
        without touching the stack.

        For event-driven flows (packets in flight, beacon rounds) where
        many operations interleave: the span is kept as the explicit
        parent of their instant spans (:meth:`add`) instead of nesting on
        the stack.  Close with :meth:`end` (safe — it only pops the stack
        for stack-opened spans).
        """
        start = self.advance(now)
        parent = self._stack[-1] if self._stack else None
        return self._new_span(
            name, parent, start, {k: str(v) for k, v in attrs.items()}
        )

    def add(self, name: str, now: Optional[float] = None,
            parent: Optional[Span] = None, status: str = "ok",
            **attrs: object) -> Span:
        """Record an instant span (start == end) with explicit parenting.

        With ``parent=None`` the span attaches to the innermost open span
        when one exists, else it roots a fresh trace.
        """
        at = self.advance(now)
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = self._new_span(
            name, parent, at, {k: str(v) for k, v in attrs.items()}
        )
        span.end_s = at
        span.status = status
        return span

    def annotate(self, **attrs: object) -> None:
        """Attach attributes to the innermost open span, if any."""
        if self._stack:
            self._stack[-1].attrs.update(
                (k, str(v)) for k, v in attrs.items()
            )

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- queries -----------------------------------------------------------------

    def spans(self) -> List[Span]:
        return list(self._spans)

    def traces(self) -> List[str]:
        seen: Dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)


def validate_trace(spans: List[Span]) -> List[str]:
    """Structural integrity check for one trace's spans.

    Returns human-readable violations (empty == healthy): a parent that
    does not exist, a parent-link cycle, or a child whose interval escapes
    its parent's sim-time bounds.
    """
    problems: List[str] = []
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(f"{span.span_id}: parent {span.parent_id} missing")
            continue
        if parent.start_s > span.start_s:
            problems.append(
                f"{span.span_id}: starts {span.start_s} before parent "
                f"{parent.span_id} at {parent.start_s}"
            )
        if (
            parent.end_s is not None
            and span.end_s is not None
            and span.end_s > parent.end_s
        ):
            problems.append(
                f"{span.span_id}: ends {span.end_s} after parent "
                f"{parent.span_id} at {parent.end_s}"
            )
    # Cycle detection over parent links.
    for span in spans:
        slow = span
        seen = set()
        while slow.parent_id is not None:
            if slow.span_id in seen:
                problems.append(f"{span.span_id}: parent-link cycle")
                break
            seen.add(slow.span_id)
            nxt = by_id.get(slow.parent_id)
            if nxt is None:
                break
            slow = nxt
    return problems


class NullTracer(Tracer):
    """No-op tracer: spans are a shared dummy, nothing is recorded."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._dummy = Span("trace-0000", "span-000000", None, "noop", 0.0, 0.0)

    def open(self, name: str, now: Optional[float] = None,
             **attrs: object) -> Span:
        return self._dummy

    def end(self, span: Span, now: Optional[float] = None,
            status: str = "ok") -> None:
        pass

    @contextmanager
    def span(self, name: str, now: Optional[float] = None,
             **attrs: object) -> Iterator[Span]:
        yield self._dummy

    def add(self, name: str, now: Optional[float] = None,
            parent: Optional[Span] = None, status: str = "ok",
            **attrs: object) -> Span:
        return self._dummy

    def annotate(self, **attrs: object) -> None:
        pass
