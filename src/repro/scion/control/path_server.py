"""Path servers: segment registration and lookup.

A global *segment registry* models the core path server infrastructure
("a global path server infrastructure provides path segment registration
and path segment lookup services", Section 2 of the paper). Each AS runs a
*local path server* that holds the AS's up segments, resolves core and down
segments through the registry, and caches results.

Lookup latency is modeled explicitly (local hop + core round trips) because
end-host bootstrapping and first-connection timing (Figure 4) depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs import CounterBackedStats, Telemetry, resolve
from repro.resilience.overload import OverloadGuard
from repro.scion.addr import IA
from repro.scion.control.segments import Beacon
from repro.scion.revocation import Revocation, segment_crosses


#: Modeled lookup round-trip times: local path server to a core path server,
#: and one more hop from there to a core path server in a remote ISD.
CORE_RTT_S = 0.020
REMOTE_ISD_RTT_S = 0.080

#: ``check(revocation, now)``: why the token is refused (``"replayed"`` or
#: ``"forged"``), or ``None`` to accept it.  See
#: :meth:`repro.scion.network.ScionNetwork.check_revocation`.
RevocationCheck = Callable[[Revocation, Optional[float]], Optional[str]]


class PathServerError(ReproError):
    """Raised for invalid registrations or lookups."""


class RegistryStats(CounterBackedStats):
    """Registry-backed path-service accounting (``registry_*_total``).

    Field semantics:

    * ``revocations_received`` — revocations accepted into quarantine.
    * ``revocations_rejected`` — dropped on signature verification.
    * ``revocations_replayed`` — arrived already past their TTL (a
      replayed stale token: valid signature, dead lifetime) and ignored.
    * ``revocations_expired`` — lazily purged after their TTL ran out.
    * ``revocations_cleared_by_beacon`` — cleared early by a re-validating
      beacon (a fresh segment crossing the revoked interface proves the
      link is alive again).
    * ``segments_quarantined`` — cumulative registered segments put behind
      a revocation at revoke time.
    """

    FIELDS = (
        "registrations", "lookups", "cache_hits", "purged_expired",
        "revocations_received", "revocations_rejected",
        "revocations_replayed", "revocations_expired",
        "revocations_cleared_by_beacon", "segments_quarantined",
    )
    PREFIX = "registry"

    @property
    def hit_rate(self) -> float:
        """Cached fraction of lookups; always within [0, 1]."""
        return self.cache_hits / self.lookups if self.lookups else 0.0


class SegmentRegistry:
    """Registration and lookup for down and core segments.

    Every registration bumps a mutation counter (``version``); local path
    servers version their lookup caches against it so segments learned in
    later beaconing rounds become visible without an explicit flush.
    """

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        #: leaf AS -> down segments terminating there
        self._down: Dict[IA, Dict[str, Beacon]] = {}
        #: (origin core, terminal core) -> core segments
        self._core: Dict[Tuple[IA, IA], Dict[str, Beacon]] = {}
        #: (origin or None, terminal or None) -> matching ``_core`` keys in
        #: lookup order; built lazily, dropped when the key set changes.
        self._core_index: Optional[Dict[tuple, List[Tuple[IA, IA]]]] = None
        #: revoked interface key ("IA#ifid") -> the revocation.  Segments
        #: crossing a revoked interface stay registered but are *quarantined*
        #: — filtered out of lookups — until the revocation expires or a
        #: fresh beacon re-validates the interface.
        self._revocations: Dict[str, Revocation] = {}
        tel = resolve(telemetry)
        self._telemetry = tel
        # Note: replacing a registry under the same enabled telemetry keeps
        # the cumulative counters (Prometheus convention — counters survive
        # the process, not the data structure); only a fresh Telemetry
        # starts them at zero.
        self.stats = RegistryStats(tel.metrics if tel.enabled else None)
        #: Optional overload guard for registrations, attached by assigning
        #: this attribute.  Consulted only when the caller supplies ``now``
        #: (so legacy now-less registrations — and their seeded digests —
        #: are untouched).  Shed registrations are dropped silently:
        #: beaconing re-registers every round, so a shed registration heals
        #: itself at the next propagation.
        self.guard: Optional[OverloadGuard] = None
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic mutation counter, bumped on every registration."""
        return self._version

    # -- registration ---------------------------------------------------------

    def register_down(self, segment: Beacon, now: Optional[float] = None) -> None:
        if now is not None and segment.expires_at() <= now:
            self.stats.inc("purged_expired")
            return
        if (
            self.guard is not None
            and now is not None
            and not self.guard.offer(now).admitted
        ):
            return
        leaf = segment.terminal_ia
        bucket = self._down.setdefault(leaf, {})
        bucket[segment.interface_fingerprint()] = segment
        self._revalidate_from(segment)
        self.stats.inc("registrations")
        self._version += 1

    def register_core(self, segment: Beacon, now: Optional[float] = None) -> None:
        if now is not None and segment.expires_at() <= now:
            self.stats.inc("purged_expired")
            return
        if (
            self.guard is not None
            and now is not None
            and not self.guard.offer(now).admitted
        ):
            return
        key = (segment.origin_ia, segment.terminal_ia)
        bucket = self._core.get(key)
        if bucket is None:
            bucket = self._core[key] = {}
            self._core_index = None
        bucket[segment.interface_fingerprint()] = segment
        self._revalidate_from(segment)
        self.stats.inc("registrations")
        self._version += 1

    def _revalidate_from(self, segment: Beacon) -> None:
        """Clear revocations a freshly built beacon disproves.

        A beacon constructed *after* a revocation was issued that crosses
        the revoked interface is proof the interface carries traffic again,
        so the quarantine is lifted early.
        """
        if not self._revocations:
            return
        cleared = [
            key for key, rev in self._revocations.items()
            if segment.timestamp > rev.issued_at
            and segment_crosses(segment, rev.ia, rev.ifid)
        ]
        for key in cleared:
            del self._revocations[key]
        self.stats.inc("revocations_cleared_by_beacon", len(cleared))
        # No version bump needed here: every caller registers (bumping) next.

    # -- revocations -------------------------------------------------------------

    def revoke(self, revocation: Revocation) -> int:
        """Quarantine every registered segment crossing the revoked interface.

        Segments are *not* deleted — they reappear when the revocation
        expires (TTL) or is cleared by a re-validating beacon.  A repeat
        revocation for the same interface keeps whichever expires later.
        Returns how many currently registered segments the revocation put
        behind quarantine.
        """
        if self.covers(revocation):
            return 0
        self._revocations[revocation.key] = revocation
        self.stats.inc("revocations_received")
        quarantined = sum(
            1
            for bucket in list(self._down.values()) + list(self._core.values())
            for seg in bucket.values()
            if segment_crosses(seg, revocation.ia, revocation.ifid)
        )
        self.stats.inc("segments_quarantined", quarantined)
        self._version += 1
        return quarantined

    def covers(self, revocation: Revocation) -> bool:
        """Is an equal-or-longer-lived revocation for this key already held?"""
        existing = self._revocations.get(revocation.key)
        return (
            existing is not None
            and existing.expires_at() >= revocation.expires_at()
        )

    def is_revoked(self, segment: Beacon) -> bool:
        """Is this segment currently behind quarantine?"""
        if not self._revocations:
            return False
        return any(
            segment_crosses(segment, rev.ia, rev.ifid)
            for rev in self._revocations.values()
        )

    def active_revocations(self, now: Optional[float] = None) -> List[Revocation]:
        if now is not None:
            self._purge_expired_revocations(now)
        return sorted(self._revocations.values(), key=lambda rev: rev.key)

    def newest_segment_timestamps(self) -> Dict[IA, float]:
        """Newest registered segment timestamp per AS it touches.

        Stats-neutral (no lookup counters bumped, nothing purged): health
        reports read beacon freshness through this without perturbing the
        metrics they sit next to.  Every AS on a segment's hop chain counts
        as *touched* — a leaf with no down segments of its own but on a
        live core segment is still being beaconed to.
        """
        newest: Dict[IA, float] = {}
        for table in (self._down, self._core):
            for bucket in table.values():
                for seg in bucket.values():
                    for ia in seg.as_sequence():
                        held = newest.get(ia)
                        if held is None or seg.timestamp > held:
                            newest[ia] = seg.timestamp
        return newest

    def quarantined_count(self, now: Optional[float] = None) -> int:
        """How many registered segments are currently filtered from lookups —
        with ``now``, not counting revocations past their TTL that no lookup
        has purged yet (a pure read, unlike ``active_revocations(now)``)."""
        live = [r for r in self._revocations.values() if now is None or r.active(now)]
        if not live:
            return 0
        return sum(
            any(segment_crosses(seg, rev.ia, rev.ifid) for rev in live)
            for table in (self._down, self._core)
            for bucket in table.values()
            for seg in bucket.values()
        )

    def _purge_expired_revocations(self, now: float) -> int:
        """Lazily drop revocations past their TTL (quarantine lifts).

        Bumps the registry version so versioned caches recompute and the
        formerly quarantined segments become servable again.
        """
        expired = [
            key for key, rev in self._revocations.items() if not rev.active(now)
        ]
        for key in expired:
            del self._revocations[key]
        if expired:
            self._version += 1
        self.stats.inc("revocations_expired", len(expired))
        return len(expired)

    # -- expiry -----------------------------------------------------------------

    def purge_expired(self, now: float) -> int:
        """Drop every registered segment past its expiry.

        Bumps the registry version when anything goes, so versioned local
        caches can no longer serve the purged segments.  Expired
        revocations are purged on the same clock, lifting their quarantine.
        """
        self._purge_expired_revocations(now)
        purged = 0
        for table in (self._down, self._core):
            for key in list(table):
                bucket = table[key]
                stale = [
                    fp for fp, seg in bucket.items() if seg.expires_at() <= now
                ]
                for fp in stale:
                    del bucket[fp]
                purged += len(stale)
                if not bucket:
                    del table[key]
                    self._core_index = None
        if purged:
            self._version += 1
        self.stats.inc("purged_expired", purged)
        return purged

    # -- lookup -----------------------------------------------------------------

    def down_segments(self, dst: IA) -> List[Beacon]:
        self.stats.inc("lookups")
        return [
            seg for seg in self._down.get(dst, {}).values()
            if not self.is_revoked(seg)
        ]

    def core_segments(
        self, origin: Optional[IA] = None, terminal: Optional[IA] = None,
    ) -> List[Beacon]:
        self.stats.inc("lookups")
        index = self._core_index
        if index is None:
            index = self._core_index = {}
            for key in sorted(self._core, key=lambda k: (str(k[0]), str(k[1]))):
                for slot in (None, None), (key[0], None), (None, key[1]), key:
                    index.setdefault(slot, []).append(key)
        segments = [
            seg for key in index.get((origin, terminal), ())
            for seg in self._core[key].values()
        ]
        if self._revocations:
            segments = [seg for seg in segments if not self.is_revoked(seg)]
        return segments

    # -- crash/restart support ---------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A restorable copy of all registered segments and revocations."""
        return {
            "down": {leaf: dict(bucket) for leaf, bucket in self._down.items()},
            "core": {key: dict(bucket) for key, bucket in self._core.items()},
            "revocations": dict(self._revocations),
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Replace the contents with a snapshot (warm restart).

        Bumps the version so local path-server caches built against the
        pre-restore state are invalidated.  Pre-revocation snapshots (no
        ``revocations`` key) restore with an empty quarantine table.
        """
        self._down = {
            leaf: dict(bucket)
            for leaf, bucket in snapshot["down"].items()  # type: ignore[union-attr]
        }
        self._core = {
            key: dict(bucket)
            for key, bucket in snapshot["core"].items()  # type: ignore[union-attr]
        }
        self._revocations = dict(snapshot.get("revocations", {}))  # type: ignore[arg-type]
        self._core_index = None
        self._version += 1

    def clear(self) -> None:
        """Drop every registered segment and revocation (crash / cold
        restart) — which is exactly why the supervisor replays its
        revocation ledger after restarting a control service."""
        self._down = {}
        self._core = {}
        self._core_index = None
        self._revocations = {}
        self._version += 1


@dataclass
class LookupTiming:
    """How long a lookup took and how many server round trips it needed."""

    latency_s: float
    round_trips: int
    cached: bool


class LocalPathServer:
    """The per-AS path service the daemon talks to."""

    def __init__(
        self,
        ia: IA,
        registry: SegmentRegistry,
        check_revocation: RevocationCheck,
        telemetry: Optional[Telemetry] = None,
    ):
        self.ia = ia
        self.registry = registry
        #: Optional overload guard for lookups, attached by assigning this
        #: attribute.  Admission is consulted only
        #: when the caller supplies ``now`` (legacy now-less lookups — and
        #: their seeded digests — bypass it); a refused lookup raises
        #: :exc:`~repro.resilience.overload.OverloadRejected` and the admitted
        #: queueing delay is added to the returned :class:`LookupTiming`.
        self.guard: Optional[OverloadGuard] = None
        tel = resolve(telemetry)
        self._telemetry = tel
        self._lookup_latency = tel.metrics.histogram(
            "pathserver_lookup_latency_seconds",
            "Modeled path-lookup latency at the local path server.",
            labels={"as": str(ia)},
        )
        # Security attribution for the two adversarial revocation shapes.
        self._security_forged_revocations = tel.metrics.counter(
            "security_forged_revocations_total",
            "Revocation tokens rejected for failing signature verification.",
            labels={"as": str(ia), "where": "path-server"},
        )
        self._security_replayed_revocations = tel.metrics.counter(
            "security_replayed_revocations_total",
            "Revocation tokens ignored because their TTL had already "
            "expired (replayed stale tokens).",
            labels={"as": str(ia)},
        )
        #: Refuses replayed (past-TTL) and forged tokens — anyone can
        #: *claim* an interface died; only the AS that owns it can say so
        #: authoritatively, and only while the token lives.
        self.check_revocation = check_revocation
        #: Called with every accepted revocation — the supervisor hangs its
        #: replay ledger here.
        self.on_revocation: Optional[Callable[[Revocation], None]] = None
        self._up: Dict[str, Beacon] = {}
        #: dst -> (snapshot version, up, core, down); entries whose snapshot
        #: version trails the current state are stale and recomputed.
        self._cache: Dict[
            IA,
            Tuple[
                Tuple[int, int],
                Tuple[Beacon, ...], Tuple[Beacon, ...], Tuple[Beacon, ...],
            ],
        ] = {}
        self._up_version = 0

    def register_up(self, segment: Beacon) -> None:
        if segment.terminal_ia != self.ia:
            raise PathServerError(
                f"up segment terminates at {segment.terminal_ia}, not {self.ia}"
            )
        self._up[segment.interface_fingerprint()] = segment
        self._up_version += 1

    @property
    def up_segments(self) -> List[Beacon]:
        """Registered up segments, minus any behind an active quarantine.

        Revocation state lives in the shared registry, so one accepted
        revocation quarantines up segments in *every* AS's local server.
        """
        return [
            seg for seg in self._up.values()
            if not self.registry.is_revoked(seg)
        ]

    def invalidate_cache(self) -> None:
        self._cache.clear()

    # -- revocations -------------------------------------------------------------

    def revoke(self, revocation: Revocation, now: Optional[float] = None) -> int:
        """Accept a revocation (after signature verification) and quarantine.

        Returns how many registered segments went behind quarantine; 0 when
        the token fails verification or is already expired.  Accepted
        revocations flow to the :attr:`on_revocation` hook so a supervisor
        can replay them into a restarted server.
        """
        refused = self.check_revocation(revocation, now)
        if refused == "replayed":
            # A token past its TTL arriving now is a replay: the network
            # already healed (or never broke); re-quarantining from a dead
            # token would let an attacker suppress a healthy link with a
            # captured message.
            self.registry.stats.inc("revocations_replayed")
            self._security_replayed_revocations.inc()
            tel = self._telemetry
            if tel.enabled:
                tel.events.record(
                    now, "security", "replayed-revocation",
                    target=revocation.key,
                    detail=f"ignored at {self.ia}: token expired at "
                           f"{revocation.expires_at():.3f}",
                    severity="warning",
                )
            return 0
        if refused is not None:
            self.registry.stats.inc("revocations_rejected")
            self._security_forged_revocations.inc()
            tel = self._telemetry
            if tel.enabled:
                at = now if now is not None else revocation.issued_at
                tel.events.record(
                    at, "security", "forged-revocation",
                    target=revocation.key,
                    detail=f"rejected at {self.ia}: bad signature",
                    severity="critical",
                )
            return 0
        if self.registry.covers(revocation):
            return 0
        quarantined = self.registry.revoke(revocation)
        quarantined += sum(
            1 for seg in self._up.values()
            if segment_crosses(seg, revocation.ia, revocation.ifid)
        )
        tel = self._telemetry
        if tel.enabled:
            at = now if now is not None else revocation.issued_at
            tel.tracer.add(
                "path_server.revocation_accept", now=at,
                server=str(self.ia), key=revocation.key,
                quarantined=quarantined,
            )
            tel.events.record_revocation(
                at, revocation,
                detail=f"accepted at {self.ia}; "
                       f"quarantined {quarantined} segment(s)",
            )
        if self.on_revocation is not None:
            self.on_revocation(revocation)
        return quarantined

    def active_revocations(self, now: Optional[float] = None) -> List[Revocation]:
        return self.registry.active_revocations(now)

    # -- crash/restart support -------------------------------------------------

    def snapshot(self) -> Dict[str, Beacon]:
        """A restorable copy of the up-segment table."""
        return dict(self._up)

    def restore(self, snapshot: Dict[str, Beacon]) -> None:
        """Replace the up-segment table with a snapshot (warm restart)."""
        self._up = dict(snapshot)
        self._up_version += 1
        self._cache.clear()

    def clear(self) -> None:
        """Drop up segments and caches (crash / cold restart)."""
        self._up = {}
        self._up_version += 1
        self._cache.clear()

    def purge_expired(self, now: float) -> int:
        """Drop expired up segments; returns how many went."""
        stale = [fp for fp, seg in self._up.items() if seg.expires_at() <= now]
        for fp in stale:
            del self._up[fp]
        if stale:
            self._up_version += 1
            self.registry.stats.inc("purged_expired", len(stale))
        return len(stale)

    def _state_version(self) -> Tuple[int, int]:
        """Version of everything a cached lookup depends on."""
        return (self.registry.version, self._up_version)

    def segments_for(
        self, dst: IA, now: Optional[float] = None,
        deadline_s: Optional[float] = None, priority: int = 1,
    ) -> Tuple[
        Tuple[Beacon, ...], Tuple[Beacon, ...], Tuple[Beacon, ...], LookupTiming
    ]:
        """(up, core, down) segments relevant for reaching ``dst``.

        Core segments returned are all segments touching any core this AS
        can reach upward; the combinator filters to usable combinations.
        Results are immutable tuples (callers cannot corrupt the cache) and
        cached entries are versioned against registry and up-segment
        mutations, so later beaconing rounds stay visible.  Passing ``now``
        purges expired segments first (which bumps the state version, so
        stale cached answers cannot be served).

        With an overload guard installed and ``now`` given, the lookup goes
        through admission first: a refusal raises
        :exc:`~repro.resilience.overload.OverloadRejected` (shed / queue full /
        cannot meet ``deadline_s``), and an admitted lookup's modeled
        queueing delay is added to the returned timing — a loaded server
        answers late before it stops answering.
        """
        admission = None
        if self.guard is not None and now is not None:
            admission = self.guard.admit(
                now, deadline_s=deadline_s, priority=priority
            )
        tel = self._telemetry
        if not tel.enabled:
            result = self._segments_for(dst, now)
            if admission is not None:
                result[3].latency_s += admission.queue_delay_s
            return result
        span = tel.tracer.begin(
            "path_server.segments_for", now=now,
            server=str(self.ia), dst=str(dst),
        )
        try:
            result = self._segments_for(dst, now)
        except BaseException:
            tel.tracer.end(span, status="error")
            raise
        timing = result[3]
        if admission is not None:
            timing.latency_s += admission.queue_delay_s
        span.attrs["cached"] = str(timing.cached)
        span.attrs["round_trips"] = str(timing.round_trips)
        self._lookup_latency.observe(timing.latency_s)
        # The span covers the modeled server round trips, so it ends at
        # lookup start + modeled latency on the simulated clock.
        tel.tracer.end(span, now=span.start_s + timing.latency_s)
        return result

    def _segments_for(
        self, dst: IA, now: Optional[float] = None
    ) -> Tuple[
        Tuple[Beacon, ...], Tuple[Beacon, ...], Tuple[Beacon, ...], LookupTiming
    ]:
        if now is not None:
            self.purge_expired(now)
            self.registry.purge_expired(now)
        cached = self._cache.get(dst)
        if cached is not None and cached[0] == self._state_version():
            _, ups, cores, downs = cached
            self.registry.stats.inc("lookups")
            self.registry.stats.inc("cache_hits")
            return ups, cores, downs, LookupTiming(0.0, 0, True)

        ups = self.up_segments
        round_trips = 1  # local path server -> core path server
        latency = CORE_RTT_S
        if dst.isd != self.ia.isd:
            round_trips += 1  # core PS -> remote ISD core PS
            latency += REMOTE_ISD_RTT_S

        downs = [] if dst == self.ia else self.registry.down_segments(dst)
        local_cores = {seg.origin_ia for seg in ups} or {self.ia}
        cores: List[Beacon] = []
        for core_ia in sorted(local_cores):
            cores.extend(self.registry.core_segments(origin=core_ia))
            cores.extend(self.registry.core_segments(terminal=core_ia))
        # A segment between two local cores matches both queries; the
        # registry holds one object per segment, so identity de-duplicates.
        unique = tuple({id(seg): seg for seg in cores}.values())
        tel = self._telemetry
        if tel.enabled:
            tel.tracer.add(
                "registry.down_segments", dst=str(dst), count=len(downs)
            )
            tel.tracer.add("registry.core_segments", count=len(unique))

        result = (tuple(ups), unique, tuple(downs))
        self._cache[dst] = (self._state_version(),) + result
        return result + (LookupTiming(latency, round_trips, False),)
