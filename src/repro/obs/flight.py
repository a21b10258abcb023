"""The crash flight recorder: a bounded black box of recent history.

When a crucible invariant fires or the supervisor detects a crash, the
question is always "what happened in the last few seconds?".  The
:class:`FlightRecorder` keeps exactly that, in fixed memory:

* the most recent :class:`~repro.obs.events.Event` records (subscribed
  via the event log's ``on_record`` hook — fault, security, supervisor,
  SLO, and monitor traffic all flow through it);
* per-tick **metric deltas**: which counters moved, by how much, since
  the previous tick (a diff is readable where a 400-line registry dump is
  not);
* trigger markers (supervisor-detected crashes, invariant names);
* the most recent tracer spans, pulled at dump time.

Everything in a dump is simulated time, sequence numbers, and counts —
no wall clock — so :meth:`dump` is deterministic: two same-seed runs
produce byte-identical black boxes, and the artifact's sha256 digest is
reproducible from the seed alone.  That turns a post-mortem artifact into
a regression test: pin the digest, replay the schedule.

Wiring is opt-in everywhere.  ``attach(telemetry)`` hangs the recorder on
the bundle (``telemetry.flight``) and subscribes to its event log; with
no recorder attached the only cost anywhere is a None check.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.obs.metrics import Histogram, MetricsRegistry


#: Flight artifact schema version.
FLIGHT_VERSION = 1


class FlightRecorder:
    """Bounded ring buffers of recent operational history."""

    def __init__(self, capacity: int = 256):
        self.capacity = int(capacity)
        self._events: Deque[Dict[str, object]] = deque(maxlen=self.capacity)
        self._deltas: Deque[Dict[str, object]] = deque(maxlen=self.capacity)
        self._triggers: List[Dict[str, object]] = []
        self._telemetry = None
        self._last_values: Dict[str, float] = {}
        self.ticks = 0
        self.dumps = 0

    # -- wiring ------------------------------------------------------------------

    @property
    def telemetry(self):
        """The telemetry bundle this recorder is attached to (or None)."""
        return self._telemetry

    def attach(self, telemetry) -> "FlightRecorder":
        """Hang this recorder on a telemetry bundle and subscribe to its
        event log.  Returns self for chaining."""
        self._telemetry = telemetry
        telemetry.flight = self
        events = telemetry.events
        previous = getattr(events, "on_record", None)

        def observe(event) -> None:
            if previous is not None:
                previous(event)
            self._events.append({
                "time_s": event.time_s,
                "source": event.source,
                "kind": event.kind,
                "target": event.target,
                "detail": event.detail,
                "severity": event.severity,
                "seq": event.seq,
            })

        events.on_record = observe
        return self

    # -- recording ---------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Record which counters/histogram counts moved since last tick."""
        self.ticks += 1
        telemetry = self._telemetry
        if telemetry is None:
            return
        metrics: MetricsRegistry = telemetry.metrics
        changed: Dict[str, float] = {}
        last = self._last_values
        for name in sorted(metrics._families):
            family = metrics._families[name]
            if family.kind == "gauge":
                continue
            for key in sorted(family.children):
                child = family.children[key]
                value = float(
                    child.count if isinstance(child, Histogram)
                    else child.value
                )
                labels = ",".join(f"{k}={v}" for k, v in key)
                series = f"{name}{{{labels}}}" if labels else name
                delta = value - last.get(series, 0.0)
                if delta:
                    changed[series] = delta
                last[series] = value
        if changed:
            self._deltas.append({"time_s": now, "deltas": changed})

    def trigger(self, now: float, source: str, kind: str,
                detail: str = "") -> None:
        """Mark a crash-grade trigger (supervisor crash detection,
        invariant violation).  Triggers are kept unbounded — there are
        few, and losing the first one would defeat the post-mortem."""
        self._triggers.append({
            "time_s": now, "source": source, "kind": kind, "detail": detail,
        })

    # -- dumping -----------------------------------------------------------------

    def dump(self, reason: str, now: float,
             context: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Assemble the deterministic black box for ``reason`` at ``now``."""
        self.dumps += 1
        spans: List[Dict[str, object]] = []
        telemetry = self._telemetry
        if telemetry is not None:
            for span in telemetry.tracer.spans()[-self.capacity:]:
                spans.append({
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "name": span.name,
                    "start_s": span.start_s,
                    "end_s": span.end_s,
                    "status": span.status,
                    "attrs": dict(sorted(span.attrs.items())),
                })
        artifact: Dict[str, object] = {
            "version": FLIGHT_VERSION,
            "reason": reason,
            "dumped_at_s": now,
            "capacity": self.capacity,
            "ticks": self.ticks,
            "triggers": list(self._triggers),
            "events": list(self._events),
            "metric_deltas": list(self._deltas),
            "spans": spans,
        }
        if context:
            artifact["context"] = context
        artifact["digest"] = flight_digest(artifact)
        return artifact


def flight_digest(artifact: Dict[str, object]) -> str:
    """sha256[:16] over the canonical JSON body (minus any digest field)."""
    body = {k: v for k, v in artifact.items() if k != "digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def save_flight(path: str, artifact: Dict[str, object]) -> None:
    """Write a flight artifact as stable, human-diffable JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
