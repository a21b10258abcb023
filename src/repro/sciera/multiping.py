"""scion-go-multiping: the paper's connectivity measurement tool (§5.4).

From 11 vantage ASes, the tool pings every other SCIERA participant every
second over the IP Internet (ICMP) and over three SCION paths in parallel —
the *shortest* (fewest AS hops, lowest path identifier), the *fastest*
(lowest RTT in the last full path probe), and the *most disjoint* (fewest
globally-unique interface ids shared with the shortest and fastest) — and
aggregates statistics every 60 seconds. Full path probes record all known
paths and which are active.

Simulation scaling: we keep the same aggregation pipeline but default to
coarser intervals (a 20-day campaign at 60 s aggregation would produce
~8.6 M interval records; at 30 min it produces ~17 k with identical
statistics, because within an interval the minimum RTT concentrates at the
path's base RTT). Full path probes are re-run whenever the link-failure
schedule fires, which subsumes the paper's "probe again if two pings
failed" trigger.

The tool-stall bug is reproduced too: ICMP measurement from some vantage
points stalled after the first 15-30 minutes of each hour until the hourly
restart; the analysis (Figure 5) excludes intervals where the majority of
ICMP pings are missing.

Refresh engine: each pair's one-time static analysis records the links its
paths traverse, which feeds a reverse index (link name -> affected pairs).
Link events then re-derive the shortest/fastest/disjoint selection only for
pairs whose paths actually cross the flipped link, instead of rescanning
every pair (the all-pairs rescan lives on as the test-side reference,
``tests/sciera/reference_campaign.py``; both produce identical records).
:class:`CampaignStats` counts what the engine actually did.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.netsim.failures import FailureSchedule, LinkEvent, MaintenanceWindow
from repro.netsim.simulator import Simulator
from repro.scion.addr import IA
from repro.scion.path import PathMeta
from repro.sciera.build import ScieraWorld
from repro.sciera.topology_data import (
    FIG8_ASES,
    MEASUREMENT_VANTAGE_POINTS,
    SCIERA_PARTICIPANTS,
)

DAY_S = 86_400.0
#: Standard deviation of the relative per-ping RTT noise (half-normal).
RTT_JITTER = 0.01


@dataclass(frozen=True)
class IntervalRecord:
    """One aggregation interval for one (src, dst) pair."""

    time_s: float
    src: str
    dst: str
    scion_rtt_s: Optional[float]       # min over the three probed paths
    scion_path_kind: str               # which of the three won ("" if none)
    active_paths: int
    known_paths: int
    ip_rtt_s: Optional[float]
    icmp_valid: bool                   # False during a tool stall


@dataclass
class CampaignStats:
    """What the campaign's refresh engine actually did.

    Experiments surface these so the engine's savings are observable, not
    asserted: ``pairs_refreshed`` is the total number of per-pair
    re-derivations across the run (an all-pairs rescan pays ``pair count``
    on every event-dirty interval; the engine pays only for pairs whose
    paths cross the flipped link).
    """

    analyses_run: int = 0            # one-time static path analyses (pairs)
    refresh_events: int = 0          # link events observed by the engine
    pairs_refreshed: int = 0         # per-pair re-derivations executed
    full_refreshes: int = 0          # all-pairs refresh rounds
    incremental_refreshes: int = 0   # link-indexed refresh rounds

    def as_dict(self) -> Dict[str, int]:
        return {
            "analyses_run": self.analyses_run,
            "refresh_events": self.refresh_events,
            "pairs_refreshed": self.pairs_refreshed,
            "full_refreshes": self.full_refreshes,
            "incremental_refreshes": self.incremental_refreshes,
        }

    def describe(self) -> str:
        return (
            f"{self.pairs_refreshed} pair refreshes over "
            f"{self.refresh_events} link events "
            f"({self.full_refreshes} full / "
            f"{self.incremental_refreshes} incremental rounds, "
            f"{self.analyses_run} pairs analyzed)"
        )


@dataclass
class CampaignDataset:
    """All records of one campaign plus its configuration echo."""

    records: List[IntervalRecord]
    duration_s: float
    interval_s: float
    sources: Tuple[str, ...]
    destinations: Tuple[str, ...]
    events: Tuple[LinkEvent, ...]
    stats: CampaignStats = field(default_factory=CampaignStats)

    @property
    def pair_count(self) -> int:
        return len({(r.src, r.dst) for r in self.records})

    def valid_records(self) -> List[IntervalRecord]:
        """Records kept by the paper's fairness filter: intervals where the
        ICMP tool had stalled are excluded for both SCION and IP."""
        return [r for r in self.records if r.icmp_valid]


def sciera_campaign_schedule(duration_s: float) -> FailureSchedule:
    """The operational events of the paper's measurement window (§5.4).

    Day 0 corresponds to January 18th:

    * day 3 (Jan 21): maintenance takes several backbone links down,
      lengthening selected paths — the first RTT-ratio spike of Figure 7;
    * days 3-7: follow-up maintenance and network changes (fluctuation);
    * day 7 (Jan 25): new EU-US links come up, stabilizing the ratio;
    * a KREONET core link is unavailable for a stretch, rerouting Daejeon-
      Singapore traffic around the globe (Figures 6, 8, 9);
    * BRIDGES instabilities throughout (UVa/Princeton/Equinix outliers);
    * day 19+ (Feb 6): node upgrades and link maintenance, second spike.
    """
    schedule = FailureSchedule()

    def clamp(t: float) -> float:
        return min(t, duration_s)

    def window(link: str, start_d: float, end_d: float, reason: str) -> None:
        start, end = start_d * DAY_S, end_d * DAY_S
        if start >= duration_s:
            return
        schedule.add_maintenance(
            MaintenanceWindow(link, start, clamp(max(end, start_d * DAY_S + 1)),
                              reason=reason)
        )

    # Jan 21 maintenance: transatlantic + one SG-AMS circuit.
    window("geant-bridges", 3.0, 3.6, "jan21-maintenance")
    window("kreonet-sg-ams", 3.1, 3.9, "jan21-maintenance")
    # Follow-up maintenance days 4-7.
    window("geant-kisti-ams", 4.3, 4.5, "followup-maintenance")
    window("kaust1-sg-ams", 5.0, 5.8, "followup-maintenance")
    window("rnp-geant-lisbon", 5.5, 6.0, "followup-maintenance")
    # New EU-US links on day 7 (Jan 25): circuits still being provisioned at
    # campaign start come up and stay up, adding path diversity.
    for link in ("equinix-geant", "bridges-kisti-stl"):
        schedule.add_event(LinkEvent(0.0, link, up=False, reason="provisioning"))
        if duration_s > 7.0 * DAY_S:
            schedule.add_event(
                LinkEvent(7.0 * DAY_S, link, up=True, reason="jan25-new-links")
            )
    # The Korea-Singapore submarine corridor outage: both KREONET legs
    # through Hong Kong are down for more than half the campaign, which is
    # what makes the Daejeon<->Singapore *median* deviation in Figure 9
    # large (16 of 37 paths in the paper).
    for leg in ("kreonet-dj-hk", "kreonet-dj-hk-2", "kreonet-dj-hk-3",
                "kreonet-dj-hk-4", "kreonet-hk-sg", "kreonet-hk-sg-2",
                "kreonet-hk-sg-3", "kreonet-hk-sg-4"):
        window(leg, 5.0, 16.5, "korea-sg-cable")
    # BRIDGES instabilities: one UVa Internet2 VLAN degraded for a long
    # stretch (Figure 9's UVa<->Equinix deviation), plus short flaps.
    window("uva-bridges-2", 4.0, 16.0, "bridges-instability")
    for i in range(10):
        start = 2.0 + i * 1.7
        window("uva-bridges-1", start, start + 0.25, "bridges-instability")
        if i % 2 == 0:
            window("equinix-bridges", start + 0.4, start + 0.6,
                   "bridges-instability")
    # Feb 6 (day 19): node upgrades -> rolling link maintenance.
    window("kreonet-ams-chg", 19.0, 19.4, "feb6-upgrades")
    window("kreonet-chg-stl", 19.5, 19.8, "feb6-upgrades")
    window("geant-kisti-sg", 19.2, 19.7, "feb6-upgrades")
    return schedule


@dataclass
class _PairState:
    """Cached analyses for one pair; refreshed cheaply on link events."""

    #: (meta, static analysis) for every control-plane path, computed once
    analyses: List[Tuple[PathMeta, "object"]] = field(default_factory=list)
    #: (meta, base RTT) for paths currently usable on the data plane
    active: List[Tuple[PathMeta, float]] = field(default_factory=list)
    shortest: Optional[Tuple[PathMeta, float]] = None
    fastest: Optional[Tuple[PathMeta, float]] = None
    disjoint: Optional[Tuple[PathMeta, float]] = None

    @property
    def known_count(self) -> int:
        return len(self.analyses)


class MultipingCampaign:
    """Runs the measurement campaign over a built SCIERA world."""

    #: vantage points whose ICMP tool exhibited the hourly stall.
    DEFAULT_STALL_SOURCES = ("71-2:0:42", "71-2:0:5c", "71-2546")

    def __init__(
        self,
        world: ScieraWorld,
        duration_s: float = 20 * DAY_S,
        interval_s: float = 1800.0,
        sources: Optional[Sequence[str]] = None,
        destinations: Optional[Sequence[str]] = None,
        schedule: Optional[FailureSchedule] = None,
        seed: int = 0,
    ):
        if interval_s <= 0 or duration_s <= 0:
            raise ValueError("duration and interval must be positive")
        self.world = world
        self.duration_s = duration_s
        self.interval_s = interval_s
        # Path statistics need the Figure 8 ASes even where the full tool
        # was not deployed (the paper pings ASes without the tool too).
        default_sources = tuple(
            dict.fromkeys(list(MEASUREMENT_VANTAGE_POINTS) + list(FIG8_ASES))
        )
        self.sources = tuple(sources) if sources is not None else default_sources
        self.destinations = (
            tuple(destinations)
            if destinations is not None
            else tuple(p.ia for p in SCIERA_PARTICIPANTS if not p.planned)
        )
        self.schedule = (
            schedule if schedule is not None
            else sciera_campaign_schedule(duration_s)
        )
        self.rng = random.Random(seed)
        self.stats = CampaignStats()
        self._stall_starts: Dict[int, float] = {}
        self._pairs: List[Tuple[str, str]] = [
            (src, dst)
            for src in self.sources
            for dst in self.destinations
            if src != dst
        ]
        self._states: Dict[Tuple[str, str], _PairState] = {}
        #: link name -> pairs whose analyzed paths traverse that link
        self._link_index: Dict[str, Set[Tuple[str, str]]] = {}
        #: pairs whose selection must be re-derived
        self._pending: Set[Tuple[str, str]] = set()

    # -- probing ---------------------------------------------------------------------

    def _analyze_pair(self, src: str, dst: str) -> _PairState:
        """One-time static analysis of every path of the pair."""
        network = self.world.network
        state = _PairState()
        for meta in network.paths(IA.parse(src), IA.parse(dst)):
            analysis = network.dataplane.analyze(meta.path, network.timestamp)
            if analysis.mac_valid:
                state.analyses.append((meta, analysis))
        return state

    @staticmethod
    def _refresh_pair(state: _PairState) -> None:
        """Re-derive the active set and the three probed paths from current
        link state — the 'full path probe' of the paper."""
        state.active = [
            (meta, analysis.rtt_s)
            for meta, analysis in state.analyses
            if analysis.usable()
        ]
        if not state.active:
            state.shortest = state.fastest = state.disjoint = None
            return
        state.shortest = min(
            state.active,
            key=lambda pair: (pair[0].path.num_as_hops(), pair[0].fingerprint),
        )
        state.fastest = min(state.active, key=lambda pair: pair[1])
        references = [state.shortest[0], state.fastest[0]]
        state.disjoint = min(
            state.active,
            key=lambda pair: (
                pair[0].shared_interfaces(references), pair[0].fingerprint,
            ),
        )

    def _ensure_analyzed(self) -> None:
        """The one-time all-pairs analysis sweep (cold-start cost).

        Builds the pair states, the link -> pairs reverse index, and the
        initial path selection.
        """
        if self._states:
            return
        for key in self._pairs:
            state = self._states[key] = self._analyze_pair(*key)
            for _, analysis in state.analyses:
                for link in analysis.links:
                    self._link_index.setdefault(link.name, set()).add(key)
            self._refresh_pair(state)
        self.stats.analyses_run += len(self._pairs)
        self.stats.full_refreshes += 1
        self.stats.pairs_refreshed += len(self._pairs)
        # Events that fired before the sweep (e.g. at t=0) are already
        # reflected in the selection just derived.
        self._pending.clear()

    def _on_link_event(self, event: LinkEvent) -> None:
        self.stats.refresh_events += 1
        self._pending.update(self._link_index.get(event.link_name, ()))

    def _refresh(self) -> None:
        """Re-derive path selections invalidated since the last interval."""
        self._ensure_analyzed()
        if self._pending:
            for key in sorted(self._pending):
                self._refresh_pair(self._states[key])
            self.stats.incremental_refreshes += 1
            self.stats.pairs_refreshed += len(self._pending)
            self._pending.clear()

    # -- stall model -----------------------------------------------------------------

    def _stall_window_s(self, src: str, hour: int) -> float:
        """Seconds of ICMP stall within one hour for a stall source.

        Not every hour stalls; when one does, the tool dies 15-30 minutes
        in and stays dead until the hourly restart (paper §5.4).
        """
        import hashlib

        digest = hashlib.sha256(f"stall:{src}:{hour}".encode()).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        if rng.random() >= 0.5:
            return 0.0
        start = 900.0 + rng.random() * 900.0
        return 3600.0 - start

    def _icmp_valid(self, src: str, t: float) -> bool:
        """Whether the interval [t, t+interval) keeps its ICMP samples.

        The paper excludes intervals where the *majority* of ICMP pings
        were missing; we integrate the stalled time across the hours the
        interval overlaps.
        """
        if src not in self.DEFAULT_STALL_SOURCES:
            return True
        end = t + self.interval_s
        stalled = 0.0
        hour = int(t // 3600)
        while hour * 3600.0 < end:
            hour_start = hour * 3600.0
            overlap_start = max(t, hour_start)
            overlap_end = min(end, hour_start + 3600.0)
            if overlap_end > overlap_start:
                stall = self._stall_window_s(src, hour)
                if stall > 0.0:
                    stall_begin = hour_start + 3600.0 - stall
                    stalled += max(
                        0.0, min(overlap_end, hour_start + 3600.0)
                        - max(overlap_start, stall_begin)
                    )
            hour += 1
        return stalled < 0.5 * self.interval_s

    # -- the campaign ---------------------------------------------------------------

    def run(self) -> CampaignDataset:
        sim = Simulator()
        self.schedule.install(sim, self.world.network.topology.links)
        self.schedule.subscribe(self._on_link_event)
        records: List[IntervalRecord] = []

        try:
            t = 0.0
            while t < self.duration_s:
                sim.run(until=t)
                self._refresh()
                for src, dst in self._pairs:
                    records.append(self._measure(src, dst, t))
                t += self.interval_s
        finally:
            self.schedule.unsubscribe(self._on_link_event)
        return CampaignDataset(
            records=records,
            duration_s=self.duration_s,
            interval_s=self.interval_s,
            sources=self.sources,
            destinations=self.destinations,
            events=tuple(self.schedule.events),
            stats=self.stats,
        )

    def _measure(self, src: str, dst: str, t: float) -> IntervalRecord:
        state = self._states[(src, dst)]
        candidates = [
            ("shortest", state.shortest),
            ("fastest", state.fastest),
            ("disjoint", state.disjoint),
        ]
        best_rtt: Optional[float] = None
        best_kind = ""
        for kind, chosen in candidates:
            if chosen is None:
                continue
            meta, base = chosen
            sample = base * (1.0 + abs(self.rng.gauss(0.0, RTT_JITTER)))
            if best_rtt is None or sample < best_rtt:
                best_rtt = sample
                best_kind = kind
        ip_base = self.world.ip_internet.rtt_s(src, dst)
        ip_rtt = None
        if ip_base is not None:
            ip_rtt = ip_base * (1.0 + abs(self.rng.gauss(0.0, RTT_JITTER)))
        return IntervalRecord(
            time_s=t,
            src=src,
            dst=dst,
            scion_rtt_s=best_rtt,
            scion_path_kind=best_kind,
            active_paths=len(state.active),
            known_paths=state.known_count,
            ip_rtt_s=ip_rtt,
            icmp_valid=self._icmp_valid(src, t),
        )
