"""Unified observability on simulated time (metrics, traces, events, health).

One :class:`Telemetry` object bundles the three pillars — a
:class:`MetricsRegistry`, a :class:`Tracer`, and an :class:`EventLog` — and
is threaded through the network's components.  Components that receive no
telemetry get :data:`NOOP_TELEMETRY`, whose ``enabled`` flag is False and
whose members are shared no-ops, so the instrumented hot paths cost one
attribute load and a branch when observability is off.

Typical use::

    from repro.obs import Telemetry
    telemetry = Telemetry()
    network = ScionNetwork(topology, telemetry=telemetry)
    ...
    print(telemetry.metrics.prometheus_text())
    print(build_health_report(network, now=t).render())
"""

from __future__ import annotations

from typing import Optional

from repro.obs.bridge import CounterBackedStats, register_stats_collector
from repro.obs.events import Event, EventLog, NullEventLog
from repro.obs.flight import FlightRecorder, flight_digest, save_flight
from repro.obs.health import HealthReport, build_health_report
from repro.obs.metrics import (
    EXPORT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.pathseries import PathSample, PathSeriesRecorder
from repro.obs.profile import Profiler
from repro.obs.slo import BurnWindow, Slo, SloEngine
from repro.obs.trace import NullTracer, Span, Tracer, validate_trace


class Telemetry:
    """The bundle handed to every instrumented component.

    The second-tier instruments — :class:`Profiler`,
    :class:`FlightRecorder`, :class:`PathSeriesRecorder` — are opt-in
    attachments, ``None`` by default: hot paths test them with a single
    attribute load and a None check, and every pinned seeded digest is
    computed with them absent.
    """

    enabled = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.events = events if events is not None else EventLog()
        #: Opt-in continuous profiler (see :mod:`repro.obs.profile`).
        self.profiler: Optional[Profiler] = None
        #: Opt-in crash flight recorder (see :mod:`repro.obs.flight`).
        self.flight: Optional[FlightRecorder] = None
        #: Opt-in per-path time-series recorder (:mod:`repro.obs.pathseries`).
        self.path_series: Optional[PathSeriesRecorder] = None


class _NoopTelemetry(Telemetry):
    """Disabled telemetry: shared, immutable-by-convention no-ops."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(
            metrics=NullRegistry(), tracer=NullTracer(), events=NullEventLog()
        )


#: The shared disabled-mode singleton; components default to it.
NOOP_TELEMETRY = _NoopTelemetry()


def resolve(telemetry: Optional[Telemetry]) -> Telemetry:
    """``None`` -> the shared no-op bundle (the constructor-default idiom)."""
    return telemetry if telemetry is not None else NOOP_TELEMETRY


__all__ = [
    "BurnWindow",
    "Counter",
    "CounterBackedStats",
    "EXPORT_QUANTILES",
    "Event",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "HealthReport",
    "Histogram",
    "MetricsRegistry",
    "NOOP_TELEMETRY",
    "NullEventLog",
    "NullRegistry",
    "NullTracer",
    "PathSample",
    "PathSeriesRecorder",
    "Profiler",
    "Slo",
    "SloEngine",
    "Span",
    "Telemetry",
    "Tracer",
    "build_health_report",
    "flight_digest",
    "register_stats_collector",
    "resolve",
    "save_flight",
    "validate_trace",
]
