"""Unit and property tests for the sim-time tracer.

The property test builds random span trees through the public API (a mix
of stack-based nesting and explicit parenting) and asserts the invariants
``validate_trace`` promises: every parent exists, no parent-link cycles,
and children stay inside their parent's sim-time bounds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import NullTracer, Tracer, validate_trace


def _trace(tracer, trace_id):
    return [s for s in tracer.spans() if s.trace_id == trace_id]


class TestStackNesting:
    def test_begin_end_parents_to_innermost(self):
        t = Tracer()
        outer = t.begin("outer", now=1.0)
        inner = t.begin("inner", now=2.0)
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        t.end(inner, now=3.0)
        t.end(outer, now=4.0)
        assert inner.finished and outer.finished
        assert validate_trace(_trace(t, outer.trace_id)) == []

    def test_span_context_manager_marks_errors(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("op", now=1.0):
                raise RuntimeError("boom")
        (span,) = t.spans()
        assert span.status == "error"
        assert span.finished

    def test_sibling_roots_get_distinct_traces(self):
        t = Tracer()
        a = t.begin("a")
        t.end(a)
        b = t.begin("b")
        t.end(b)
        assert a.trace_id != b.trace_id
        assert t.traces() == [a.trace_id, b.trace_id]

    def test_annotate_attaches_to_open_span(self):
        t = Tracer()
        with t.span("op") as span:
            t.annotate(paths=3)
        assert span.attrs["paths"] == "3"


class TestExplicitParenting:
    def test_open_with_explicit_parent_skips_stack(self):
        t = Tracer()
        root = t.open("root", now=0.0)
        # The stack stays empty: open() never pushes.
        assert t.current() is None
        child = t.add("child", now=0.5, parent=root)
        t.end(root, now=2.0)
        assert child.parent_id == root.span_id
        assert validate_trace(_trace(t, root.trace_id)) == []

    def test_add_records_instant_span(self):
        t = Tracer()
        root = t.open("root", now=0.0)
        hop = t.add("hop", now=0.25, parent=root, egress=3)
        assert hop.start_s == hop.end_s == 0.25
        assert hop.attrs["egress"] == "3"
        assert hop.duration_s() == 0.0

    def test_clock_is_monotonic_high_water(self):
        t = Tracer()
        t.advance(5.0)
        span = t.add("late", now=1.0)
        # Explicit past times are clamped up to the high-water mark so
        # traces never move backwards in sim time.
        assert span.start_s == 5.0
        assert t.advance(None) == 5.0


class TestValidation:
    def test_missing_parent_reported(self):
        t = Tracer()
        root = t.open("root", now=0.0)
        t.add("child", now=0.1, parent=root)
        t.end(root, now=0.3)
        spans = _trace(t, root.trace_id)
        # Drop the root: the child's parent link now dangles.
        problems = validate_trace([s for s in spans if s is not root])
        assert any("missing" in p for p in problems)

    def test_child_escaping_parent_bounds_reported(self):
        t = Tracer()
        root = t.open("root", now=0.0)
        child = t.add("child", now=0.5, parent=root)
        t.end(root, now=1.0)
        child.end_s = 2.0  # forged: outlives its parent
        problems = validate_trace(_trace(t, root.trace_id))
        assert any("after parent" in p for p in problems)

    def test_cycle_reported(self):
        t = Tracer()
        a = t.open("a", now=0.0)
        b = t.add("b", now=0.0, parent=a)
        a.parent_id = b.span_id  # forged cycle
        problems = validate_trace(_trace(t, a.trace_id))
        assert any("cycle" in p for p in problems)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["push", "pop", "instant", "detached"]),
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
        ),
        max_size=40,
    )
)
def test_trace_tree_integrity_property(ops):
    """Any interleaving of the public API yields structurally valid traces."""
    t = Tracer()
    detached = []

    def close_detached(now=None):
        # Children close before (or with) their parents, as the real
        # instrumentation does: a detached span may hang off the innermost
        # stack span, so it must not outlive a pop.
        for span in reversed(detached):
            if not span.finished:
                t.end(span, now=now)
        detached.clear()

    for op, now in ops:
        if op == "push":
            t.begin("op", now=now)
        elif op == "pop":
            current = t.current()
            if current is not None:
                close_detached(now=now)
                t.end(current, now=now)
        elif op == "instant":
            t.add("instant", now=now)
        else:
            detached.append(t.open("detached", now=now))
    # Close everything still open, at the high-water mark.
    close_detached()
    while t.current() is not None:
        t.end(t.current())
    for trace_id in t.traces():
        assert validate_trace(_trace(t, trace_id)) == []


class TestNullTracer:
    def test_records_nothing(self):
        t = NullTracer()
        assert t.enabled is False
        with t.span("op"):
            t.annotate(x=1)
        root = t.open("root", now=1.0)
        t.add("child", parent=root)
        t.end(root)
        assert t.spans() == []
        assert t.traces() == []
