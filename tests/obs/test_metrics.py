"""Unit and property tests for the metrics registry.

The streaming histogram's quantile estimates are property-tested against
numpy's exact quantiles: with bucket growth factor G, the relative error
of any quantile is bounded by roughly G - 1 (plus interpolation slack), so
the tolerance here is deliberately loose at 10%.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    EXPORT_QUANTILES,
    Counter,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c_total").inc(-1)


class TestHistogram:
    def test_count_sum_min_max(self):
        h = Histogram("h")
        for v in (0.5, 1.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(3.5)
        assert h.min == pytest.approx(0.5)
        assert h.max == pytest.approx(2.0)

    def test_empty_quantile_is_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_single_sample(self):
        h = Histogram("h")
        h.observe(7.0)
        assert h.quantile(0.5) == pytest.approx(7.0, rel=0.05)

    def test_nonpositive_values_bucketed(self):
        h = Histogram("h")
        h.observe(0.0)
        h.observe(-1.0)
        h.observe(1.0)
        assert h.count == 3
        # Half of the mass is at <= 0; the median sits at the zero bucket.
        assert h.quantile(0.0) <= 0.0

    def test_reset(self):
        h = Histogram("h")
        h.observe(1.0)
        h.reset()
        assert h.count == 0
        assert h.sum == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=2, max_size=400,
        ),
        st.sampled_from([0.5, 0.9, 0.95, 0.99]),
    )
    def test_quantiles_match_numpy(self, values, q):
        """Streaming estimate vs exact numpy quantile, within 10% rel."""
        h = Histogram("h")
        for v in values:
            h.observe(v)
        exact = float(np.quantile(values, q, method="linear"))
        estimate = h.quantile(q)
        assert estimate == pytest.approx(exact, rel=0.10, abs=1e-9)


class TestRegistry:
    def test_counter_identity_per_labelset(self):
        m = MetricsRegistry()
        a = m.counter("x_total", "x", labels={"as": "1"})
        b = m.counter("x_total", labels={"as": "1"})
        c = m.counter("x_total", labels={"as": "2"})
        assert a is b
        assert a is not c

    def test_kind_conflict_rejected(self):
        m = MetricsRegistry()
        m.counter("thing")
        with pytest.raises(ValueError):
            m.gauge("thing")

    def test_prometheus_text_format(self):
        m = MetricsRegistry()
        m.counter("req_total", "requests", labels={"as": "71-1"}).inc(3)
        m.gauge("depth", "queue depth").set(2)
        h = m.histogram("lat_seconds", "latency")
        h.observe(0.25)
        text = m.prometheus_text()
        assert "# TYPE req_total counter" in text
        assert 'req_total{as="71-1"} 3' in text
        assert "depth 2" in text
        assert "lat_seconds_count 1" in text
        for q in EXPORT_QUANTILES:
            assert f'quantile="{q}"' in text

    def test_prometheus_text_deterministic(self):
        def build():
            m = MetricsRegistry()
            m.counter("b_total", labels={"z": "1"}).inc()
            m.counter("a_total").inc(2)
            m.histogram("h_seconds").observe(0.5)
            return m.prometheus_text()

        assert build() == build()

    def test_json_export_round_trips(self):
        m = MetricsRegistry()
        m.counter("a_total").inc()
        payload = json.loads(m.to_json())
        assert "a_total" in payload

    def test_collectors_run_at_export(self):
        m = MetricsRegistry()
        calls = []
        m.register_collector(lambda reg: calls.append(1) or
                             reg.gauge("pulled").set(9))
        assert not calls
        text = m.prometheus_text()
        assert calls == [1]
        assert "pulled 9" in text

    def test_reset_zeroes_everything(self):
        m = MetricsRegistry()
        c = m.counter("a_total")
        c.inc(5)
        h = m.histogram("h_seconds")
        h.observe(1.0)
        g = m.gauge("depth")
        g.set(3)
        m.reset()
        assert c.value == 0
        assert h.count == 0
        assert g.value == 0


class TestNullRegistry:
    def test_shared_noop_instruments(self):
        n = NullRegistry()
        c1 = n.counter("a_total", labels={"x": "1"})
        c2 = n.counter("b_total")
        assert c1 is c2
        c1.inc(100)
        assert c1.value == 0.0
        n.histogram("h").observe(3.0)
        n.gauge("g").set(5.0)
        assert n.prometheus_text() == ""


class TestCardinalityCap:
    """Regression tests at the cap boundary: a per-path label leak at
    5000 ASes must collapse into one overflow child, not eat the
    registry."""

    def test_children_below_cap_unaffected(self):
        m = MetricsRegistry(max_children_per_family=4)
        for i in range(4):
            m.counter("req_total", labels={"as": f"71-{i}"}).inc()
        family = m._families["req_total"]
        assert len(family.children) == 4
        assert family.overflowed == 0
        assert 'overflow="true"' not in m.prometheus_text()

    def test_boundary_new_label_set_collapses_into_overflow(self):
        m = MetricsRegistry(max_children_per_family=4)
        for i in range(4):
            m.counter("req_total", labels={"as": f"71-{i}"}).inc()
        # The 5th distinct label set lands in the overflow child.
        spilled = m.counter("req_total", labels={"as": "71-999"})
        spilled.inc(3)
        family = m._families["req_total"]
        assert family.overflowed == 1
        text = m.prometheus_text()
        assert 'req_total{overflow="true"} 3' in text

    def test_existing_children_still_writable_past_cap(self):
        m = MetricsRegistry(max_children_per_family=2)
        first = m.counter("req_total", labels={"as": "a"})
        m.counter("req_total", labels={"as": "b"})
        m.counter("req_total", labels={"as": "c"}).inc()  # overflowed
        again = m.counter("req_total", labels={"as": "a"})
        assert again is first                 # cap gates creation only
        again.inc(2)
        assert first.value == 2

    def test_overflow_child_shared_and_counted(self):
        m = MetricsRegistry(max_children_per_family=1)
        m.counter("req_total", labels={"as": "a"}).inc()
        one = m.counter("req_total", labels={"as": "b"})
        two = m.counter("req_total", labels={"as": "c"})
        assert one is two
        one.inc()
        two.inc()
        family = m._families["req_total"]
        assert family.overflowed == 2
        assert family.children[
            (("overflow", "true"),)
        ].value == 2

    def test_histograms_capped_too(self):
        m = MetricsRegistry(max_children_per_family=1)
        m.histogram("lat_seconds", labels={"as": "a"}).observe(0.1)
        spill = m.histogram("lat_seconds", labels={"as": "b"})
        spill.observe(0.2)
        text = m.prometheus_text()
        assert 'lat_seconds_count{overflow="true"} 1' in text

    def test_default_cap_is_generous(self):
        m = MetricsRegistry()
        assert m.max_children_per_family == 1024

    def test_export_deterministic_with_overflow(self):
        def build():
            m = MetricsRegistry(max_children_per_family=2)
            for i in range(5):
                m.counter("req_total", labels={"as": f"71-{i}"}).inc()
            return m.prometheus_text()

        assert build() == build()
