"""Bridging the legacy ``*Stats`` classes onto the metrics registry.

Two migration patterns, chosen per class by hot-path cost:

* :class:`CounterBackedStats` — the class's public fields become thin
  read-only views over registry counters (the fields tests read keep
  working; increments go through :meth:`inc`).  Used by the central
  dataplane/control-plane stats (``RouterStats``, ``RegistryStats``,
  ``DaemonStats``).
* :func:`register_stats_collector` — a pull-style collector snapshots a
  plain dataclass's numeric fields into gauges at export time.  Only
  ``SupervisorStats`` uses it: its ``+=`` increment sites stay plain and
  the registry still exports the fields with labels.

Stats are cumulative, like Prometheus counters; a clean baseline is a
freshly built component.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Dict, Optional, Tuple

from repro.obs.metrics import Counter, MetricsRegistry


class CounterBackedStats:
    """Base for stats whose public fields are views over counters.

    Subclasses declare ``FIELDS`` (the public field names) and ``PREFIX``
    (the metric family prefix); each field becomes a counter family
    ``<PREFIX>_<field>_total`` labelled with the constructor's ``labels``.
    Without a registry the counters are private standalone objects — the
    stats work identically, they are just not exported anywhere.
    """

    FIELDS: ClassVar[Tuple[str, ...]] = ()
    PREFIX: ClassVar[str] = "stats"

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 labels: Optional[Dict[str, str]] = None):
        counters: Dict[str, Counter] = {}
        for name in self.FIELDS:
            metric = f"{self.PREFIX}_{name}_total"
            if metrics is None:
                counters[name] = Counter(metric, labels)
            else:
                counters[name] = metrics.counter(metric, labels=labels)
        object.__setattr__(self, "_counters", counters)

    def inc(self, field: str, amount: float = 1.0) -> None:
        self._counters[field].inc(amount)

    def __getattr__(self, name: str):
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            value = counters[name].value
            if float(value).is_integer():
                return int(value)
            return value
        raise AttributeError(
            f"{type(self).__name__!s} has no attribute {name!r}"
        )

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.FIELDS}


def register_stats_collector(
    metrics: MetricsRegistry,
    stats: object,
    prefix: str,
) -> None:
    """Export a plain dataclass's numeric fields as gauges, pulled lazily.

    The collector runs at export time (``prometheus_text`` / ``to_json``),
    so the instrumented hot path pays nothing.
    """
    field_names = [
        f.name for f in dataclasses.fields(stats)
        if isinstance(getattr(stats, f.name), (int, float))
    ]

    def collect(registry: MetricsRegistry) -> None:
        for name in field_names:
            registry.gauge(f"{prefix}_{name}").set(
                getattr(stats, name)
            )

    metrics.register_collector(collect)
