"""Labelled metrics on a single registry: counters, gauges, histograms.

The paper's operators run continuous monitoring from their own
infrastructure and debug incidents from a status page (Section 4.4); this
module is the substrate that makes the reproduction observable the same
way.  One :class:`MetricsRegistry` holds every instrument of a simulated
deployment, keyed by metric *family* name plus a sorted label set, and
exports the whole state as Prometheus text or JSON.

Design constraints, in order:

* **Determinism** — two runs with the same seed must export byte-identical
  text.  Export order is (family name, label items); no wall-clock
  timestamps appear anywhere; quantile estimation is pure arithmetic.
* **Zero overhead when disabled** — :class:`NullRegistry` hands out shared
  no-op instruments so instrumented hot paths cost one method call.
* **No raw samples** — :class:`Histogram` keeps log-spaced bucket counts
  (sparse), so a million observations cost a few hundred ints while p50,
  p95, and p99 stay within ``GROWTH - 1`` relative error of the exact
  quantiles (property-tested against numpy).
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Labels = Optional[Dict[str, str]]
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Labels) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _fmt(value: float) -> str:
    """Prometheus sample value: integral floats render as integers."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing sample (floats allowed for seconds)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = None):
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        self.value += amount


class Gauge:
    """A sample that can go up and down (queue depths, freshness)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = None):
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming distribution sketch over log-spaced buckets.

    Observations land in sparse buckets ``floor(log(v) / log(GROWTH))``;
    quantiles interpolate between bucket geometric midpoints, giving a
    relative error bounded by roughly ``GROWTH - 1`` without storing any
    raw sample.  Non-positive observations fall into a dedicated zero
    bucket (latencies are never negative; a cached lookup takes 0 s).
    """

    GROWTH = 1.05
    _LOG_GROWTH = math.log(GROWTH)

    __slots__ = ("name", "labels", "count", "sum", "_buckets", "_zero",
                 "_min", "_max")

    def __init__(self, name: str, labels: Labels = None):
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self.count: int = 0
        self.sum: float = 0.0
        self._buckets: Dict[int, int] = {}
        self._zero: int = 0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self._zero += 1
            return
        index = math.floor(math.log(value) / self._LOG_GROWTH)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def _ordered_statistic(self, index: int) -> float:
        """Estimate of the ``index``-th (0-based) smallest observation."""
        cumulative = self._zero
        if index < cumulative:
            return 0.0
        for bucket in sorted(self._buckets):
            cumulative += self._buckets[bucket]
            if index < cumulative:
                # Geometric midpoint of [G^b, G^(b+1)).
                return self.GROWTH ** (bucket + 0.5)
        return self._max if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate of the ``q`` quantile (numpy 'linear' rank semantics)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * (self.count - 1)
        lower = math.floor(rank)
        upper = math.ceil(rank)
        lo = self._ordered_statistic(lower)
        if upper == lower:
            return lo
        hi = self._ordered_statistic(upper)
        fraction = rank - lower
        return lo * (1.0 - fraction) + hi * fraction


#: Quantiles exported for every histogram (the status-page trio).
EXPORT_QUANTILES = (0.5, 0.95, 0.99)


class _Family:
    """One metric family: a name, a type, and labelled children."""

    __slots__ = ("name", "help", "kind", "children", "overflowed")

    def __init__(self, name: str, help_text: str, kind: str):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.children: Dict[LabelKey, object] = {}
        #: get-or-create requests collapsed into the overflow child after
        #: the family hit the registry's cardinality cap.
        self.overflowed = 0


#: Reserved label set for the per-family overflow child (see
#: ``MetricsRegistry.max_children_per_family``).
OVERFLOW_LABELS = {"overflow": "true"}
_OVERFLOW_KEY = _label_key(OVERFLOW_LABELS)

#: Default cardinality cap per family.  High enough that no current
#: experiment comes near it (the largest labelled families are per-AS at
#: tens-to-hundreds of children), low enough that a per-path label leak
#: at 5000 ASes cannot eat the registry: past the cap, new label sets
#: share one ``{overflow="true"}`` child.
DEFAULT_MAX_CHILDREN_PER_FAMILY = 1024


class MetricsRegistry:
    """Get-or-create registry of labelled instruments, with exporters.

    ``register_collector`` hangs a pull-style callback on the registry:
    it runs at every export so plain ``*Stats`` dataclasses can be
    mirrored into gauges lazily, at zero cost on their hot paths (the
    Prometheus client-library "custom collector" pattern).
    """

    def __init__(
        self,
        max_children_per_family: int = DEFAULT_MAX_CHILDREN_PER_FAMILY,
    ) -> None:
        self._families: Dict[str, _Family] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        #: Cardinality cap: once a family holds this many labelled
        #: children, further *new* label sets collapse into one shared
        #: ``{overflow="true"}`` child (so the aggregate keeps counting
        #: while the label explosion stops).  Existing children keep
        #: working — the cap only gates creation.
        self.max_children_per_family = max(1, int(max_children_per_family))

    # -- instruments ------------------------------------------------------------

    def _child(self, name: str, help_text: str, kind: str, labels: Labels,
               factory) -> object:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, help_text, kind)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}"
            )
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            if (
                len(family.children) >= self.max_children_per_family
                and key != _OVERFLOW_KEY
            ):
                # Cardinality cap: collapse this new label set into the
                # overflow child (created on first overflow — it may sit
                # one past the cap so capped families stay observable).
                family.overflowed += 1
                child = family.children.get(_OVERFLOW_KEY)
                if child is None:
                    child = factory(name, dict(OVERFLOW_LABELS))
                    family.children[_OVERFLOW_KEY] = child
                return child
            child = factory(name, labels)
            family.children[key] = child
        return child

    def counter(self, name: str, help_text: str = "",
                labels: Labels = None) -> Counter:
        return self._child(name, help_text, "counter", labels, Counter)

    def gauge(self, name: str, help_text: str = "",
              labels: Labels = None) -> Gauge:
        return self._child(name, help_text, "gauge", labels, Gauge)

    def histogram(self, name: str, help_text: str = "",
                  labels: Labels = None) -> Histogram:
        return self._child(name, help_text, "summary", labels, Histogram)

    # -- collection --------------------------------------------------------------

    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector(self)

    # -- export ------------------------------------------------------------------

    @staticmethod
    def _render_labels(labels: Dict[str, str],
                       extra: Iterable[Tuple[str, str]] = ()) -> str:
        items = sorted(labels.items())
        items.extend(extra)
        if not items:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in items)
        return "{" + inner + "}"

    def prometheus_text(self) -> str:
        """Prometheus exposition-format dump, deterministically ordered."""
        self.collect()
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.children):
                child = family.children[key]
                labels = dict(key)
                if isinstance(child, Histogram):
                    for q in EXPORT_QUANTILES:
                        tag = self._render_labels(
                            labels, [("quantile", _fmt(q))]
                        )
                        lines.append(f"{name}{tag} {_fmt(child.quantile(q))}")
                    base = self._render_labels(labels)
                    lines.append(f"{name}_count{base} {child.count}")
                    lines.append(f"{name}_sum{base} {_fmt(child.sum)}")
                else:
                    tag = self._render_labels(labels)
                    lines.append(f"{name}{tag} {_fmt(child.value)}")
        if not lines:
            return ""
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The same state as a deterministic JSON document."""
        self.collect()
        doc: Dict[str, object] = {}
        for name in sorted(self._families):
            family = self._families[name]
            samples = []
            for key in sorted(family.children):
                child = family.children[key]
                sample: Dict[str, object] = {"labels": dict(key)}
                if isinstance(child, Histogram):
                    sample["count"] = child.count
                    sample["sum"] = child.sum
                    sample["quantiles"] = {
                        _fmt(q): child.quantile(q) for q in EXPORT_QUANTILES
                    }
                else:
                    sample["value"] = child.value
                samples.append(sample)
            doc[name] = {"type": family.kind, "samples": samples}
        return json.dumps(doc, sort_keys=True)


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class NullRegistry(MetricsRegistry):
    """No-op registry: every instrument is a shared do-nothing singleton."""

    def counter(self, name: str, help_text: str = "",
                labels: Labels = None) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, help_text: str = "",
              labels: Labels = None) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str, help_text: str = "",
                  labels: Labels = None) -> Histogram:
        return _NULL_HISTOGRAM
