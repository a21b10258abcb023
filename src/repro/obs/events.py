"""The unified structured event log: one ordered operational timeline.

Before this module, each subsystem kept its own stream: the chaos layer's
``FaultEvent`` list, the supervisor's ``event_sink`` callbacks, the
connectivity monitor's ``Alert`` list, and revocations visible only as
registry state.  Operators debugging the paper's incidents (Section 5.4)
read *one* timeline; this log is that timeline for the simulation.

Events are appended with a sequence number, so ordering is total and
deterministic even when several subsystems record at the same simulated
instant.  Repeated ``connectivity-lost`` alerts for a pair that is already
known down are deduplicated (counted, not stored) — an operator cares that
the pair went down, not that the prober noticed again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Event:
    """One timeline entry."""

    time_s: float
    source: str     # "chaos" | "supervisor" | "monitor" | "revocation" | ...
    kind: str       # e.g. "link-down", "service-restart", "connectivity-lost"
    target: str = ""
    detail: str = ""
    severity: str = "info"   # "info" | "warning" | "critical"
    seq: int = 0


#: Event kinds that clear a pair's down state for alert deduplication.
_RESTORE_KINDS = ("connectivity-restored",)


class EventLog:
    """Ordered, structured, deterministic operational timeline."""

    def __init__(self) -> None:
        self.events: List[Event] = []
        #: Unordered pairs currently known down, keyed canonically
        #: (sorted endpoints) — used to deduplicate repeated
        #: ``connectivity-lost`` alerts.  The key is unordered because a
        #: pair is *one* outage no matter which side's monitor noticed:
        #: under an asymmetric partition, probes fail in both directions
        #: (the echo reply crosses the cut), so vantage points on both
        #: sides alert on the same incident and a directed key would
        #: double-count it.
        self._down_pairs: Dict[Tuple[str, str], int] = {}
        #: canonical key -> the first directed (src, dst) seen, so
        #: :meth:`down_pairs` reports the direction the alert arrived in.
        self._down_display: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self.suppressed_alerts = 0
        #: Optional subscription hook, called with every recorded event.
        #: The flight recorder hangs its ring buffer here; with nothing
        #: attached the cost is one None check per record.
        self.on_record: Optional[Callable[[Event], None]] = None

    # -- recording ---------------------------------------------------------------

    def record(self, time_s: float, source: str, kind: str, target: str = "",
               detail: str = "", severity: str = "info") -> Event:
        event = Event(
            time_s=time_s, source=source, kind=kind, target=target,
            detail=detail, severity=severity, seq=len(self.events),
        )
        self.events.append(event)
        if self.on_record is not None:
            self.on_record(event)
        return event

    def record_alert(self, alert) -> Optional[Event]:
        """Ingest a :class:`~repro.core.monitoring.Alert` as a structured
        event, deduplicating repeated losses for an already-down pair.

        Returns the recorded event, or None when the alert was suppressed.
        """
        key = ((alert.src, alert.dst) if alert.src <= alert.dst
               else (alert.dst, alert.src))
        if alert.kind == "connectivity-lost":
            if key in self._down_pairs:
                self._down_pairs[key] += 1
                self.suppressed_alerts += 1
                return None
            self._down_pairs[key] = 1
            self._down_display[key] = (alert.src, alert.dst)
            severity = "critical"
        elif alert.kind in _RESTORE_KINDS:
            self._down_pairs.pop(key, None)
            self._down_display.pop(key, None)
            severity = "info"
        else:
            severity = "warning"
        return self.record(
            alert.time_s, "monitor", alert.kind,
            target=f"{alert.src}->{alert.dst}",
            detail=f"email {alert.email_to}; {alert.detail}",
            severity=severity,
        )

    def record_fault(self, fault) -> Event:
        """Mirror a chaos-layer :class:`FaultEvent` into the timeline."""
        severity = "warning"
        if fault.kind in ("link-down", "server-outage", "ca-outage",
                          "service-crash", "partition-start"):
            severity = "critical"
        elif fault.kind in ("link-up", "server-recovery", "ca-recovery",
                            "service-restart", "partition-heal"):
            severity = "info"
        return self.record(
            fault.time_s, "chaos", fault.kind, target=fault.target,
            detail=fault.detail, severity=severity,
        )

    def supervisor_sink(self) -> Callable[[float, str, str, str], None]:
        """An adapter matching ``Supervisor(event_sink=...)``."""

        def sink(time_s: float, target: str, kind: str, detail: str) -> None:
            severity = "critical" if "crash" in kind or "failed" in kind \
                else "info"
            self.record(time_s, "supervisor", kind, target=target,
                        detail=detail, severity=severity)

        return sink

    def record_revocation(self, time_s: float, revocation,
                          detail: str = "") -> Event:
        return self.record(
            time_s, "revocation", "interface-revoked",
            target=revocation.key, detail=detail, severity="critical",
        )

    # -- queries -----------------------------------------------------------------

    def timeline(self, source: Optional[str] = None) -> List[Event]:
        """Events ordered by (time, insertion sequence), optionally of one
        source only."""
        out = self.events
        if source is not None:
            out = [e for e in out if e.source == source]
        return sorted(out, key=lambda e: (e.time_s, e.seq))

    def down_pairs(self) -> List[str]:
        return sorted(
            f"{src}->{dst}" for src, dst in self._down_display.values()
        )

    def digest(self) -> str:
        """Stable digest of the full timeline (determinism checks)."""
        payload = "\n".join(
            f"{e.time_s:.9f}|{e.source}|{e.kind}|{e.target}|{e.detail}"
            for e in self.timeline()
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


class NullEventLog(EventLog):
    """No-op event log for disabled telemetry."""

    def record(self, time_s: float, source: str, kind: str, target: str = "",
               detail: str = "", severity: str = "info") -> Event:
        return Event(time_s=time_s, source=source, kind=kind)

    def record_alert(self, alert) -> Optional[Event]:
        return None
