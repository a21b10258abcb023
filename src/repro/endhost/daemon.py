"""The SCION daemon (sciond).

"The daemon acts as the core of this stack, handling all end host
interactions with the SCION control plane. It consolidates critical tasks,
such as path lookup and selection, caching path information, ... and
maintaining local databases for SCION's public-key infrastructure"
(paper Section 2). One daemon serves all applications on a host, giving
them shared caching and consolidated control-plane interactions — the
benefit the bootstrapper-dependent and standalone library modes trade away.

Resilience semantics (the deployment lessons of Section 5.4):

* failed or empty lookups are **never cached** — a destination that was
  transiently unreachable is re-queried on the next lookup instead of
  serving a cached empty answer for a full TTL;
* when a refresh fails but an expired entry exists, the daemon serves the
  old paths **marked stale** (``PathMeta.stale``) rather than nothing —
  applications keep working through control-plane hiccups;
* SCMP "interface down" reports **expire on a TTL**, so a single stray
  report cannot suppress a path forever if the periodic re-probe that
  calls :meth:`clear_interface_state` is itself disrupted.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.overload import OverloadRejected
from repro.errors import ReproError
from repro.obs import CounterBackedStats, Telemetry, resolve
from repro.scion.addr import IA
from repro.scion.control.path_server import RevocationCheck
from repro.scion.control.service import TrustStore
from repro.scion.network import ScionNetwork
from repro.scion.path import PathMeta
from repro.scion.revocation import Revocation
from repro.scion.scmp import (
    CODE_QUEUE_FULL,
    CODE_UNKNOWN_PATH_INTERFACE,
    ScmpMessage,
    ScmpType,
)


class DaemonStats(CounterBackedStats):
    """Lookup accounting. The invariant:
    ``lookups == cache_hits + fetches`` and ``stale_served <= failed_fetches``.

    Fields are thin views over ``daemon_*_total`` counter families when
    telemetry is enabled (labelled by the daemon's AS).

    lookups:
        Total :meth:`Daemon.lookup` calls.
    cache_hits:
        Lookups answered from a cache entry still within its TTL.
    fetches:
        Lookups that went to the control plane (no entry, or entry expired).
    refreshes:
        Subset of ``fetches`` that *successfully replaced* an existing
        (expired) cache entry.  First-time fetches are not refreshes, and
        neither are failed refetches.
    failed_fetches:
        Fetches that raised or returned no paths; never cached.
    stale_served:
        Failed refreshes answered with the expired entry, marked stale.
    scmp_interface_down:
        SCMP interface-scoped error reports accepted (external interface
        down, unknown path interface).
    revocations_received:
        Signed revocation tokens ingested via :meth:`handle_revocation`.
    revocations_rejected:
        Received tokens that failed signature verification and were
        dropped before any down-marking, eviction, or upstream push —
        a forged "this link is dead" claim must not move state.
    revocations_pushed:
        Revocations forwarded upstream to the AS's local path server.
    revocations_pulled:
        Revocations learned *from* the path server during lookups (other
        hosts' failures propagating to this one).
    paths_evicted:
        Cached paths dropped because a revocation covered them.
    rejected_overload:
        Fetches refused by the path server's overload admission; the
        daemon serves stale instead of retrying (subset of
        ``failed_fetches``).
    scmp_congestion:
        SCMP QUEUE_FULL congestion signals received.  Counted but never
        down-marked: a congested interface is alive.
    """

    FIELDS = (
        "lookups", "cache_hits", "fetches", "refreshes", "failed_fetches",
        "stale_served", "scmp_interface_down", "revocations_received",
        "revocations_rejected", "revocations_pushed", "revocations_pulled",
        "paths_evicted", "rejected_overload", "scmp_congestion",
    )
    PREFIX = "daemon"


class Daemon:
    """Per-host path lookup/caching service."""

    def __init__(
        self,
        network: ScionNetwork,
        ia: IA,
        cache_ttl_s: float = 300.0,
        down_interface_ttl_s: float = 60.0,
        fetch: Optional[Callable[[IA], List[PathMeta]]] = None,
        propagate_revocations: bool = True,
        telemetry: Optional[Telemetry] = None,
    ):
        self.network = network
        self.ia = ia
        self.cache_ttl_s = cache_ttl_s
        self.down_interface_ttl_s = down_interface_ttl_s
        #: Push ingested revocations to the AS path server and pull other
        #: hosts' revocations back during lookups. Off = the pre-pipeline
        #: behaviour (each host rediscovers dead links on its own).
        self.propagate_revocations = propagate_revocations
        #: Public: the PAN library roots its send traces off the daemon's
        #: telemetry, so one failover shows up as one trace.
        self.telemetry = resolve(telemetry)
        self.stats = DaemonStats(
            self.telemetry.metrics if self.telemetry.enabled else None,
            labels={"as": str(ia)},
        )
        #: The network's revocation check, as on every
        #: :class:`~repro.scion.control.path_server.LocalPathServer`.
        self.check_revocation: RevocationCheck = network.check_revocation
        #: Security attribution: forged (unverifiable) revocation tokens
        #: this daemon refused to act on.
        self._security_forged_revocations = self.telemetry.metrics.counter(
            "security_forged_revocations_total",
            "Revocation tokens rejected for failing signature verification.",
            labels={"as": str(ia), "where": "daemon"},
        )
        self.trust_store = TrustStore()
        for isd in network.topology.isds():
            self.trust_store.add_trc(network.trc_for(isd))
        #: control-plane fetch, overridable for fault injection (None =
        #: the network's path lookup, with deadline propagation)
        self._fetch = fetch
        #: dst -> (fetch time, paths)
        self._cache: Dict[IA, Tuple[float, List[PathMeta]]] = {}
        #: interface id -> time at which the down-report expires
        self._down_interfaces: Dict[str, float] = {}

    def lookup(
        self, dst: IA, now: float = 0.0, deadline_s: Optional[float] = None
    ) -> List[PathMeta]:
        """Paths to ``dst``, served from cache within the TTL.

        Paths containing interfaces reported down via SCMP are filtered out
        until the report expires or the next re-probe — this is the
        "switching paths instantly" behaviour of Section 4.7.  A failed
        refresh serves the previous (expired) paths marked ``stale``.

        ``deadline_s`` (absolute sim time) propagates downstream into the
        path server's overload admission.  An overload rejection is *not*
        retried — the daemon degrades to the stale-serve path immediately,
        so browned-out servers see less load, not more.
        """
        tel = self.telemetry
        if not tel.enabled:
            return self._lookup(dst, now, deadline_s)
        with tel.tracer.span(
            "daemon.lookup", now=now, host=str(self.ia), dst=str(dst)
        ) as span:
            paths = self._lookup(dst, now, deadline_s)
            span.attrs["paths"] = str(len(paths))
            series = tel.path_series
            if series is not None:
                # Per-pair churn: the recorder diffs this set against the
                # previous lookup's (SCIONLab path-dynamics telemetry).
                series.record_selection(
                    now, str(self.ia), str(dst),
                    [meta.fingerprint for meta in paths],
                )
            return paths

    def _do_fetch(
        self, dst: IA, now: float, deadline_s: Optional[float]
    ) -> List[PathMeta]:
        if self._fetch is not None:
            return self._fetch(dst)
        if deadline_s is None:
            return self.network.paths(self.ia, dst)
        return self.network.paths(self.ia, dst, now=now, deadline_s=deadline_s)

    def _lookup(
        self, dst: IA, now: float, deadline_s: Optional[float] = None
    ) -> List[PathMeta]:
        self.stats.inc("lookups")
        self._expire_down_interfaces(now)
        self._pull_revocations(now)
        cached = self._cache.get(dst)
        if cached is not None and now - cached[0] < self.cache_ttl_s:
            self.stats.inc("cache_hits")
            paths = cached[1]
        else:
            self.stats.inc("fetches")
            try:
                paths = self._do_fetch(dst, now, deadline_s)
            except OverloadRejected:
                # The server said "not now" — honoring that means serving
                # stale (below), never retrying into the brownout.
                self.stats.inc("rejected_overload")
                paths = []
            except ReproError:
                paths = []
            if paths:
                if cached is not None:
                    self.stats.inc("refreshes")
                self._cache[dst] = (now, paths)
            else:
                self.stats.inc("failed_fetches")
                if cached is not None:
                    self.stats.inc("stale_served")
                    paths = [
                        dataclasses.replace(meta, stale=True)
                        for meta in cached[1]
                    ]
        if not self._down_interfaces:
            return list(paths)
        return [
            meta for meta in paths
            if not any(ifid in self._down_interfaces for ifid in meta.interfaces)
        ]

    def handle_scmp(
        self,
        message: ScmpMessage,
        now: float = 0.0,
        revocation: Optional[Revocation] = None,
    ) -> None:
        """React to SCMP errors from routers.

        Interface-scoped errors (external interface down, unknown path
        interface) mark the offending interface down for
        ``down_interface_ttl_s``.  When the error arrives with a signed
        ``revocation`` token and the pipeline is on,
        :meth:`handle_revocation` takes over: the mark lasts the token's
        full TTL, affected cached paths are evicted, and the token is
        pushed upstream to the AS path server.  With
        ``propagate_revocations`` off the token is ignored — the
        pre-pipeline behaviour of short, per-host down reports.
        """
        if (
            message.scmp_type is ScmpType.DESTINATION_UNREACHABLE
            and message.code == CODE_QUEUE_FULL
        ):
            # Congestion, not failure: the interface is alive, just busy.
            # Count it (senders back off through pan's retry budget) but
            # never mark the interface down — a surge must not look like
            # an outage.
            self.stats.inc("scmp_congestion")
            if self.telemetry.enabled:
                self.telemetry.tracer.add(
                    "scmp.congestion", now=now,
                    origin=str(message.origin_ia), ifid=str(message.info),
                )
            return
        interface_scoped = message.scmp_type is ScmpType.EXTERNAL_INTERFACE_DOWN or (
            message.scmp_type is ScmpType.PARAMETER_PROBLEM
            and message.code == CODE_UNKNOWN_PATH_INTERFACE
        )
        if not interface_scoped or not message.origin_ia or not message.info:
            return
        self.stats.inc("scmp_interface_down")
        if self.telemetry.enabled:
            self.telemetry.tracer.add(
                "scmp.error", now=now, status="error",
                type=message.scmp_type.name, origin=str(message.origin_ia),
                ifid=str(message.info),
            )
        if revocation is not None and self.propagate_revocations:
            self.handle_revocation(revocation, now=now)
            return
        self._mark_down(
            f"{message.origin_ia}#{message.info}",
            now + self.down_interface_ttl_s,
        )

    def handle_revocation(self, revocation: Revocation, now: float = 0.0) -> None:
        """Ingest a revocation: mark, evict, and push upstream.

        The daemon holds the quarantine for the token's own lifetime (not
        the short unsigned-report TTL), drops every cached path crossing
        the revoked interface, and — with ``propagate_revocations`` — hands
        the token to the AS's path server so *every* host behind it stops
        being served the dead paths.
        """
        if not revocation.active(now):
            return
        tel = self.telemetry
        if not tel.enabled:
            self._ingest_revocation(revocation, now)
            return
        with tel.tracer.span(
            "revocation.ingest", now=now, host=str(self.ia),
            key=revocation.key,
        ):
            self._ingest_revocation(revocation, now)

    def _ingest_revocation(self, revocation: Revocation, now: float) -> None:
        self.stats.inc("revocations_received")
        if self.check_revocation(revocation, now) is not None:
            # Forged token (dead ones never get this far): anyone can
            # *claim* an interface died, but only the owning AS can say so
            # authoritatively.  Reject before any state moves — no
            # down-mark, no eviction, no upstream push.
            self.stats.inc("revocations_rejected")
            self._security_forged_revocations.inc()
            tel = self.telemetry
            if tel.enabled:
                tel.events.record(
                    now, "security", "forged-revocation",
                    target=revocation.key,
                    detail=f"rejected at daemon {self.ia}: bad signature",
                    severity="critical",
                )
            return
        series = self.telemetry.path_series
        if series is not None:
            series.record_revocation(
                now, revocation.key, src=str(self.ia),
                detail="accepted at daemon",
            )
        self._mark_down(revocation.key, revocation.expires_at())
        self._evict_paths_over(revocation.key)
        if self.propagate_revocations:
            path_server = self._path_server()
            if path_server is not None:
                path_server.revoke(revocation, now=now)
                self.stats.inc("revocations_pushed")

    def _mark_down(self, key: str, until: float) -> None:
        """Mark an interface down; repeated reports only ever extend."""
        self._down_interfaces[key] = max(
            self._down_interfaces.get(key, 0.0), until
        )

    def _evict_paths_over(self, key: str) -> int:
        """Drop cached paths crossing a revoked interface."""
        evicted = 0
        for dst, (fetched_at, metas) in list(self._cache.items()):
            kept = [meta for meta in metas if key not in meta.interfaces]
            if len(kept) == len(metas):
                continue
            evicted += len(metas) - len(kept)
            if kept:
                self._cache[dst] = (fetched_at, kept)
            else:
                del self._cache[dst]
        self.stats.inc("paths_evicted", evicted)
        return evicted

    def _path_server(self):
        service = self.network.services.get(self.ia)
        return service.path_server if service is not None else None

    def _pull_revocations(self, now: float) -> None:
        """Learn revocations the AS path server accepted from other hosts."""
        if not self.propagate_revocations:
            return
        path_server = self._path_server()
        if path_server is None:
            return
        for rev in path_server.active_revocations(now):
            if self._down_interfaces.get(rev.key, 0.0) < rev.expires_at():
                self._mark_down(rev.key, rev.expires_at())
                self._evict_paths_over(rev.key)
                self.stats.inc("revocations_pulled")

    def _expire_down_interfaces(self, now: float) -> None:
        expired = [
            ifid for ifid, until in self._down_interfaces.items() if until <= now
        ]
        for ifid in expired:
            del self._down_interfaces[ifid]

    def clear_interface_state(self) -> None:
        """Forget down-interface reports (periodic re-probe succeeded)."""
        self._down_interfaces.clear()

    def flush_cache(self) -> None:
        self._cache.clear()

    @property
    def cached_destinations(self) -> List[IA]:
        return sorted(self._cache)

    @property
    def down_interfaces(self) -> List[str]:
        return sorted(self._down_interfaces)
