"""Failure and maintenance schedules.

The SCIERA measurement campaign (Section 5.4 of the paper) overlapped with
real operational events: a KREONET link outage that re-routed traffic around
the globe, BRIDGES instabilities, maintenance on January 21st and after
February 6th, and new EU-US links arriving on January 25th. This module
expresses such timelines as declarative schedules applied to named links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.netsim.link import Link
from repro.netsim.simulator import Simulator


@dataclass(frozen=True)
class LinkEvent:
    """A single state change of one link at an absolute simulated time."""

    time_s: float
    link_name: str
    up: bool
    reason: str = ""


@dataclass(frozen=True)
class MaintenanceWindow:
    """A link taken down for [start_s, end_s) and then restored."""

    link_name: str
    start_s: float
    end_s: float
    reason: str = "maintenance"

    def events(self) -> List[LinkEvent]:
        if self.end_s <= self.start_s:
            raise ValueError(
                f"maintenance window must have end > start "
                f"({self.start_s} .. {self.end_s})"
            )
        return [
            LinkEvent(self.start_s, self.link_name, up=False, reason=self.reason),
            LinkEvent(self.end_s, self.link_name, up=True, reason=self.reason + "-done"),
        ]


class FailureSchedule:
    """Applies a list of :class:`LinkEvent` to links via the simulator.

    An optional observer is notified on every applied event, which the
    measurement/monitoring layers use to trigger re-probes and alerts.
    """

    def __init__(self) -> None:
        self._events: List[LinkEvent] = []
        self._observers: List[Callable[[LinkEvent], None]] = []

    @property
    def events(self) -> List[LinkEvent]:
        return sorted(self._events, key=lambda e: e.time_s)

    def add_event(self, event: LinkEvent) -> None:
        self._events.append(event)

    def add_events(self, events: Iterable[LinkEvent]) -> None:
        for event in events:
            self.add_event(event)

    def add_maintenance(self, window: MaintenanceWindow) -> None:
        self.add_events(window.events())

    def add_cable_cut(self, link_name: str, time_s: float,
                      repair_s: Optional[float] = None,
                      reason: str = "cable-cut") -> None:
        """A cable cut: down at ``time_s``, optionally repaired later."""
        self.add_event(LinkEvent(time_s, link_name, up=False, reason=reason))
        if repair_s is not None:
            if repair_s <= time_s:
                raise ValueError("repair must come after the cut")
            self.add_event(LinkEvent(repair_s, link_name, up=True, reason="repaired"))

    def subscribe(self, observer: Callable[[LinkEvent], None]) -> None:
        self._observers.append(observer)

    def unsubscribe(self, observer: Callable[[LinkEvent], None]) -> None:
        """Detach an observer; unknown observers are ignored so teardown
        paths can call this unconditionally."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def install(self, sim: Simulator, links: Dict[str, Link]) -> None:
        """Schedule every event onto the simulator.

        Unknown link names raise immediately: silently ignoring them would
        make experiments lie about the failures they claim to inject.
        """
        for event in self.events:
            if event.link_name not in links:
                raise KeyError(
                    f"failure schedule references unknown link {event.link_name!r}"
                )
        for event in self.events:
            sim.schedule_at(event.time_s, self._apply, event, links[event.link_name])

    def _apply(self, event: LinkEvent, link: Link) -> None:
        link.set_up(event.up)
        for observer in self._observers:
            observer(event)
