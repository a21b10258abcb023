"""Status-page health reports (the paper's Section 4.4 operator view).

SCIERA operators consult an orchestrator status page when an incident
email arrives: which links are down, which segments are quarantined, how
fresh the control plane's view is, what restarted recently.
:func:`build_health_report` assembles exactly that snapshot from a running
:class:`~repro.scion.network.ScionNetwork` plus whatever operational
components exist (supervisor, connectivity monitor, event log).

Reading state for a report must never *change* state: everything here goes
through stats-neutral accessors (``newest_segment_timestamps``,
``quarantined_count``, ``active_revocations()`` without ``now``), so a
health check does not perturb lookup counters or purge clocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class HealthReport:
    """One rendered snapshot of network health at a simulated instant."""

    generated_at_s: float
    #: AS -> age in seconds of the freshest registered segment touching it
    #: (None means the control plane holds no segment for that AS).
    beacon_freshness_s: Dict[str, Optional[float]] = field(default_factory=dict)
    down_links: List[str] = field(default_factory=list)
    #: AS -> interface ids administratively down at its border router.
    down_interfaces: Dict[str, List[int]] = field(default_factory=dict)
    quarantined_segments: int = 0
    active_revocations: List[str] = field(default_factory=list)
    #: service name -> (crashes, restarts, last restart mode).
    service_restarts: Dict[str, Tuple[int, int, str]] = field(default_factory=dict)
    unreachable_from_monitor: List[str] = field(default_factory=list)
    suppressed_alerts: int = 0
    events_by_severity: Dict[str, int] = field(default_factory=dict)
    #: service name -> current queueing delay (s) at its overload guard,
    #: for guards past their healthy operating point.  Overload is its own
    #: status tier: the service is up and degrading gracefully, which an
    #: operator must read differently from DOWN.
    overloaded_services: Dict[str, float] = field(default_factory=dict)
    #: Currently firing SLO burn-rate alerts (rendered descriptions from
    #: :class:`repro.obs.slo.SloEngine`); empty when no engine is wired.
    slo_alerts: List[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """Green status: nothing down, nothing quarantined."""
        return not (
            self.down_links
            or any(self.down_interfaces.values())
            or self.quarantined_segments
            or self.active_revocations
            or self.unreachable_from_monitor
        )

    @property
    def status(self) -> str:
        """Four-tier rollup: DOWN > DEGRADED > OVERLOADED > OK.

        DOWN — something is unreachable (dead links, monitor-confirmed
        outages).  DEGRADED — reduced path diversity (interfaces down,
        quarantined segments, active revocations).  OVERLOADED — all
        infrastructure is up, but at least one service's admission guard
        is shedding or queueing past its target.  OK — none of the above.
        """
        if self.down_links or self.unreachable_from_monitor:
            return "DOWN"
        if not self.healthy:
            return "DEGRADED"
        if self.overloaded_services:
            return "OVERLOADED"
        return "OK"

    def render(self) -> str:
        """The status page as text, deterministically ordered."""
        status = self.status
        lines = [
            f"=== network health @ t={self.generated_at_s:.3f}s — {status} ===",
            "",
            "beacon freshness (age of newest segment per AS):",
        ]
        for ia in sorted(self.beacon_freshness_s):
            age = self.beacon_freshness_s[ia]
            shown = "no segments" if age is None else f"{age:.1f}s"
            lines.append(f"  {ia:<12} {shown}")
        lines.append("")
        lines.append(f"down links ({len(self.down_links)}):")
        for link in self.down_links:
            lines.append(f"  {link}")
        lines.append(f"down interfaces ({sum(len(v) for v in self.down_interfaces.values())}):")
        for ia in sorted(self.down_interfaces):
            ifids = self.down_interfaces[ia]
            if ifids:
                lines.append(f"  {ia}: {', '.join(str(i) for i in ifids)}")
        lines.append(
            f"quarantined segments: {self.quarantined_segments} "
            f"(active revocations: {len(self.active_revocations)})"
        )
        for key in self.active_revocations:
            lines.append(f"  revoked {key}")
        restarted = {
            name: rec for name, rec in self.service_restarts.items()
            if rec[0] or rec[1]
        }
        lines.append(f"services with incidents ({len(restarted)}):")
        for name in sorted(restarted):
            crashes, restarts, mode = restarted[name]
            lines.append(
                f"  {name}: {crashes} crash(es), {restarts} restart(s)"
                + (f", last mode {mode}" if mode else "")
            )
        if self.unreachable_from_monitor:
            lines.append(
                "unreachable from monitor: "
                + ", ".join(self.unreachable_from_monitor)
            )
        if self.overloaded_services:
            lines.append(
                f"overloaded services ({len(self.overloaded_services)}):"
            )
            for name in sorted(self.overloaded_services):
                delay = self.overloaded_services[name]
                lines.append(f"  {name}: queue delay {delay * 1000:.1f} ms")
        if self.slo_alerts:
            lines.append(f"SLO burn-rate alerts ({len(self.slo_alerts)}):")
            for description in self.slo_alerts:
                lines.append(f"  {description}")
        if self.suppressed_alerts:
            lines.append(f"suppressed duplicate alerts: {self.suppressed_alerts}")
        if self.events_by_severity:
            summary = ", ".join(
                f"{severity}={self.events_by_severity[severity]}"
                for severity in sorted(self.events_by_severity)
            )
            lines.append(f"event log: {summary}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "generated_at_s": self.generated_at_s,
            "healthy": self.healthy,
            "status": self.status,
            "overloaded_services": self.overloaded_services,
            "beacon_freshness_s": self.beacon_freshness_s,
            "down_links": self.down_links,
            "down_interfaces": self.down_interfaces,
            "quarantined_segments": self.quarantined_segments,
            "active_revocations": self.active_revocations,
            "service_restarts": {
                name: {"crashes": c, "restarts": r, "last_mode": m}
                for name, (c, r, m) in self.service_restarts.items()
            },
            "unreachable_from_monitor": self.unreachable_from_monitor,
            "suppressed_alerts": self.suppressed_alerts,
            "events_by_severity": self.events_by_severity,
            "slo_alerts": self.slo_alerts,
        }
        return json.dumps(doc, sort_keys=True)


def build_health_report(
    network,
    now: float,
    supervisor=None,
    monitor=None,
    events=None,
    guards=None,
    slo=None,
) -> HealthReport:
    """Assemble a :class:`HealthReport` without mutating any component.

    ``supervisor``, ``monitor``, and ``events`` are optional — the report
    covers whatever operational layers the experiment actually stood up.
    ``guards`` maps service names to their
    :class:`~repro.core.overload.OverloadGuard`; guards past their healthy
    operating point at ``now`` surface as OVERLOADED (a tier *below*
    DEGRADED/DOWN — the service answers, just late or selectively).
    ``slo`` is an optional :class:`~repro.obs.slo.SloEngine`; its
    currently firing burn-rate alerts annotate the report (reading them
    does not advance the engine — evaluation happens only in ``sample``).
    """
    report = HealthReport(generated_at_s=now)

    # Beacon freshness: newest registered segment per AS, by age.
    newest = network.registry.newest_segment_timestamps()
    for ia in sorted(network.topology.ases):
        ts = newest.get(ia)
        report.beacon_freshness_s[str(ia)] = (
            None if ts is None else max(0.0, now - ts)
        )

    report.down_links = sorted(
        name for name, link in network.topology.links.items() if not link.up
    )
    # TTLs lapse lazily (on the next packet or lookup): read the facts at now.
    for ia, router in sorted(network.dataplane.routers.items()):
        report.down_interfaces[str(ia)] = sorted(router.down_interfaces_at(now))

    report.quarantined_segments = network.registry.quarantined_count(now)
    report.active_revocations = [
        rev.key for rev in network.registry.active_revocations()
        if rev.active(now)
    ]

    if supervisor is not None:
        for name in supervisor.services():
            rec = supervisor.record(name)
            report.service_restarts[name] = (
                rec.crashes, rec.restarts, rec.last_mode,
            )
    if monitor is not None:
        report.unreachable_from_monitor = list(monitor.currently_down)
    if guards is not None:
        for name in sorted(guards):
            guard = guards[name]
            if guard.overloaded(now):
                report.overloaded_services[name] = guard.queue_delay_s(now)
    if slo is not None:
        report.slo_alerts = slo.describe_alerts()
    if events is not None:
        report.suppressed_alerts = events.suppressed_alerts
        severities: Dict[str, int] = {}
        for event in events.events:
            severities[event.severity] = severities.get(event.severity, 0) + 1
        report.events_by_severity = severities
    return report
