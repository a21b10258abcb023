"""End-to-end packet delivery across the simulated SCION topology.

Two modes share the same router decision logic:

* :meth:`ScionDataplane.probe` — a synchronous walk used by measurement
  campaigns (millions of pings): verifies every hop MAC, checks link state,
  and returns the round-trip time analytically.
* :meth:`ScionDataplane.send` — event-driven delivery through the
  discrete-event simulator, used by the packet-level experiments
  (dispatcher bottleneck, Hercules transfers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.netsim.link import Link
from repro.netsim.simulator import Simulator
from repro.obs import Telemetry, resolve
from repro.scion.addr import IA
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.crypto.rsa import RsaKeyPair
from repro.scion.dataplane.router import BorderRouter, Verdict
from repro.scion.packet import ScionPacket
from repro.scion.path import DataplanePath, HopRecord
from repro.scion.revocation import (
    DEFAULT_REVOCATION_TTL_S,
    Revocation,
    revocation_from_scmp,
)
from repro.scion.scmp import (
    ScmpMessage,
    interface_down,
    path_expired,
    queue_full,
    unknown_path_interface,
)
from repro.scion.topology import GlobalTopology


@dataclass(frozen=True)
class PathAnalysis:
    """Static analysis of one path: MAC validity, links, base RTT.

    Measurement campaigns analyze each path once (MACs and link bindings
    do not change between beaconing runs) and afterwards only re-check the
    ``up`` flags of ``links`` — the same information a probe would yield,
    at a fraction of the cost.
    """

    mac_valid: bool
    links: tuple
    rtt_s: float
    failure: str = ""

    def usable(self) -> bool:
        return self.mac_valid and all(link.up for link in self.links)


@dataclass(frozen=True)
class DropLocation:
    """Where a packet died: the AS, and the egress ifid when attributable."""

    ia: Optional[IA] = None
    ifid: int = 0


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of walking one path."""

    success: bool
    rtt_s: float = 0.0
    one_way_s: float = 0.0
    failure: str = ""
    failed_at: Optional[IA] = None
    #: egress interface id at ``failed_at`` for interface-scoped failures
    #: (link down, interface marked down, unknown interface) — what a
    #: router would put in its SCMP error.
    failed_ifid: Optional[int] = None
    #: The SCMP error a real router would route back to the source, when
    #: the failure maps to one (interface-down, unknown interface, path
    #: expired). Loss produces no SCMP, and analytic walks never hit a
    #: queue; event-driven queue overflows emit a QUEUE_FULL congestion
    #: signal only when the dataplane's ``queue_full_scmp`` flag is set.
    scmp: Optional[ScmpMessage] = None
    #: Revocation minted from ``scmp`` when it is interface-scoped, signed
    #: by the failing AS if its signing key is known to the dataplane.
    revocation: Optional[Revocation] = None

    def __bool__(self) -> bool:
        return self.success


#: Per-router processing latency (MAC check + header rewrite), one direction.
ROUTER_PROCESSING_S = 12e-6


class ScionDataplane:
    """Delivers SCION packets across a :class:`GlobalTopology`."""

    def __init__(
        self,
        topology: GlobalTopology,
        forwarding_keys: Dict[IA, SymmetricKey],
        router_processing_s: float = ROUTER_PROCESSING_S,
        signing_keys: Optional[Dict[IA, RsaKeyPair]] = None,
        revocation_ttl_s: float = DEFAULT_REVOCATION_TTL_S,
        telemetry: Optional[Telemetry] = None,
        queue_full_scmp: bool = False,
    ):
        self.topology = topology
        tel = resolve(telemetry)
        self._telemetry = tel
        self.routers: Dict[IA, BorderRouter] = {
            ia: BorderRouter(topo, forwarding_keys[ia], telemetry=telemetry)
            for ia, topo in topology.ases.items()
        }
        self.router_processing_s = router_processing_s
        #: AS signing keys (the beaconing keys): when present, revocations
        #: minted for that AS's interfaces are signed so path servers in
        #: other ASes can verify them.
        self.signing_keys: Dict[IA, RsaKeyPair] = dict(signing_keys or {})
        self.revocation_ttl_s = revocation_ttl_s
        #: When True, a bounded egress queue overflow routes an SCMP
        #: DESTINATION_UNREACHABLE/CODE_QUEUE_FULL back to the source so
        #: senders can back off.  Off by default: legacy experiments model
        #: routers that shed congestion silently, and the congestion SCMP
        #: must never be confused with interface-down (daemons ignore it
        #: for down-marking — see ``Daemon.handle_scmp``).
        self.queue_full_scmp = queue_full_scmp
        #: Registered probe faults, oldest first (see :meth:`add_probe_fault`).
        self._probe_faults: dict = {}

    def revocation_for(
        self, scmp: ScmpMessage, now: float
    ) -> Optional[Revocation]:
        """Mint the revocation matching an interface-scoped SCMP error.

        Signed by the originating AS when its signing key is registered;
        returns None for SCMP messages that are not interface-scoped.
        """
        rev = revocation_from_scmp(scmp, now, ttl_s=self.revocation_ttl_s)
        if rev is None:
            return None
        key = self.signing_keys.get(rev.ia)
        if key is not None:
            rev = rev.signed_by(key)
        return rev

    def apply_revocation(self, revocation: Revocation) -> bool:
        """Mark the revoked egress interface down at its border router.

        Models the revoking AS's own routers honoring the revocation (so
        stale paths die at the first hop inside that AS, not deep in the
        network); the mark lapses with the revocation's TTL. Returns False
        when the AS is not simulated here.
        """
        router = self.routers.get(revocation.ia)
        if router is None:
            return False
        router.mark_interface_down(revocation.ifid, revocation.expires_at())
        return True

    # -- analytic walk -----------------------------------------------------------

    def walk(self, path: DataplanePath, now: float) -> ProbeResult:
        """Walk a path once (one way), verifying hops and link state.

        This is the measurement-campaign hot path (millions of probes per
        experiment): the forwarding plan is the path's cached tuple, the
        per-iteration state is two scalars, and instance attributes are
        bound to locals once — the loop allocates nothing until the final
        :class:`ProbeResult`.

        With a :class:`~repro.obs.profile.Profiler` attached to the
        telemetry bundle, each walk is attributed under a
        ``dataplane;ScionDataplane.walk;<outcome>`` frame with its
        modeled one-way delay as sim time; without one, the wrapper costs
        one attribute load and a None check.
        """
        profiler = self._telemetry.profiler
        if profiler is None:
            return self._walk(path, now)
        token = profiler.start()
        result = self._walk(path, now)
        profiler.finish(
            token,
            ("dataplane", "ScionDataplane.walk",
             result.failure or "delivered"),
            sim_s=result.one_way_s,
        )
        return result

    def _walk(self, path: DataplanePath, now: float) -> ProbeResult:
        records = path.forwarding_plan()
        if not records:
            return ProbeResult(False, failure="empty-path")
        routers = self.routers
        topology = self.topology
        processing = self.router_processing_s
        count = len(records)
        delay = 0.0
        arrival_ifid: Optional[int] = None
        index = 0
        while index < count:
            record = records[index]
            record_ia = record.hop.ia
            router = routers.get(record_ia)
            if router is None:
                return ProbeResult(
                    False, failure="unknown-as", failed_at=record_ia
                )
            next_record = records[index + 1] if index + 1 < count else None
            decision = router.decide(record, next_record, arrival_ifid, now)
            delay += processing
            verdict = decision.verdict
            if verdict is Verdict.DELIVER:
                return ProbeResult(True, rtt_s=2 * delay, one_way_s=delay)
            if verdict is Verdict.CROSSOVER:
                index += 1
                arrival_ifid = None
                continue
            if verdict is not Verdict.FORWARD:
                return self._verdict_result(decision, record_ia, now)
            link = topology.link_between(record_ia, decision.egress_ifid)
            if link is None:
                return ProbeResult(
                    False, failure="no-link", failed_at=record_ia
                )
            if not link.up:
                router.link_down_drops.inc()
                scmp = interface_down(str(record_ia), decision.egress_ifid)
                return ProbeResult(
                    False, failure="link-down", failed_at=record_ia,
                    failed_ifid=decision.egress_ifid,
                    scmp=scmp, revocation=self.revocation_for(scmp, now),
                )
            blocked = link.blocked_senders
            if blocked and str(record_ia) in blocked:
                # Partition: a silent blackhole — no SCMP, no revocation
                # (routers cannot see the cut; see NetworkPartition).
                return ProbeResult(
                    False, failure="partition", failed_at=record_ia,
                    failed_ifid=decision.egress_ifid,
                )
            iface = topology.get(record_ia).interfaces[decision.egress_ifid]
            if next_record is None or next_record.hop.ia != iface.remote_ia:
                return ProbeResult(
                    False, failure="path-link-mismatch", failed_at=record_ia
                )
            delay += link.latency_s
            arrival_ifid = iface.remote_ifid
            index += 1
        return ProbeResult(False, failure="fell-off-path")

    @staticmethod
    def _scmp_for_verdict(decision, ia: IA) -> Optional[ScmpMessage]:
        """The SCMP error a router emits for a drop verdict, if any."""
        if decision.verdict is Verdict.DROP_EXPIRED:
            return path_expired(str(ia))
        if decision.verdict is Verdict.DROP_INTERFACE_DOWN:
            return interface_down(str(ia), decision.egress_ifid)
        if decision.verdict is Verdict.DROP_NO_INTERFACE and decision.egress_ifid:
            return unknown_path_interface(str(ia), decision.egress_ifid)
        return None

    def _verdict_result(self, decision, ia: IA, now: float) -> ProbeResult:
        """A failed ProbeResult carrying the SCMP error the verdict implies."""
        scmp = self._scmp_for_verdict(decision, ia)
        interface_scoped = decision.verdict in (
            Verdict.DROP_INTERFACE_DOWN, Verdict.DROP_NO_INTERFACE
        )
        revocation = self.revocation_for(scmp, now) if scmp is not None else None
        return ProbeResult(
            False, failure=decision.verdict.value, failed_at=ia,
            failed_ifid=(decision.egress_ifid or None) if interface_scoped else None,
            scmp=scmp, revocation=revocation,
        )

    def analyze(self, path: DataplanePath, now: float) -> PathAnalysis:
        """One-time static analysis: verify MACs and collect the links.

        Unlike :meth:`walk`, link up/down state is ignored here — callers
        re-evaluate ``usable()`` as link state changes.
        """
        records = path.forwarding_plan()
        if not records:
            return PathAnalysis(False, (), 0.0, "empty-path")
        links = []
        delay = 0.0
        arrival_ifid: Optional[int] = None
        index = 0
        while index < len(records):
            record = records[index]
            router = self.routers.get(record.hop.ia)
            if router is None:
                return PathAnalysis(False, (), 0.0, "unknown-as")
            next_record = records[index + 1] if index + 1 < len(records) else None
            decision = router.decide(record, next_record, arrival_ifid, now)
            delay += self.router_processing_s
            if decision.verdict is Verdict.DELIVER:
                return PathAnalysis(True, tuple(links), 2 * delay)
            if decision.verdict is Verdict.CROSSOVER:
                index += 1
                arrival_ifid = None
                continue
            if decision.verdict is not Verdict.FORWARD:
                return PathAnalysis(False, (), 0.0, decision.verdict.value)
            link = self.topology.link_between(record.hop.ia, decision.egress_ifid)
            if link is None:
                return PathAnalysis(False, (), 0.0, "no-link")
            iface = self.topology.get(record.hop.ia).interfaces[decision.egress_ifid]
            if next_record is None or next_record.hop.ia != iface.remote_ia:
                return PathAnalysis(False, (), 0.0, "path-link-mismatch")
            links.append(link)
            delay += link.latency_s
            arrival_ifid = iface.remote_ifid
            index += 1
        return PathAnalysis(False, (), 0.0, "fell-off-path")

    def probe(self, path: DataplanePath, now: float) -> ProbeResult:
        """Round-trip probe (SCMP echo semantics): forward walk doubled.

        SCION replies reverse the same path, so a successful forward walk
        implies a successful reverse walk under the same link state —
        *except* under asymmetric partitions, where a direction can be cut
        without the shared ``up`` flag changing.  The reply-direction
        check below only runs while a partition is active (the topology's
        ``partitioned_links`` set is non-empty), so the measurement hot
        path pays a single truthiness test.
        """
        result = self.walk(path, now)
        if result.success and self.topology.partitioned_links:
            reply = self._reply_partitioned(path)
            if reply is not None:
                result = ProbeResult(
                    False, failure="partition-reply", failed_at=reply,
                )
        if self._probe_faults:
            for fault in tuple(self._probe_faults.values()):
                result = fault(result, now)
        return result

    def add_probe_fault(self, fault: Callable) -> Callable[[], None]:
        """Pass every :meth:`probe` outcome through ``fault(result, now) ->
        result``, after earlier registrations.  The returned remover takes
        out exactly this registration."""
        def remove() -> None:
            self._probe_faults.pop(remove, None)

        self._probe_faults[remove] = fault
        return remove

    def _reply_partitioned(self, path: DataplanePath) -> Optional[IA]:
        """The AS whose *reply* direction is cut, or None if none is.

        The echo reply reverses the path, so for each link the forward
        walk crossed, the reply's sender is the far endpoint; if that
        direction is blocked the echo never comes back even though the
        forward walk succeeded.  Mirrors the link selection of
        :meth:`path_latency_s`.
        """
        records = path.forwarding_plan()
        for index, record in enumerate(records):
            if index + 1 >= len(records):
                break
            next_record = records[index + 1]
            if next_record.hop.ia == record.hop.ia:
                continue
            _, egress = record.oriented()
            link = self.topology.link_between(record.hop.ia, egress)
            if link is None or not link.blocked_senders:
                continue
            reply_sender = link.other(str(record.hop.ia))
            if reply_sender in link.blocked_senders:
                return next_record.hop.ia
        return None

    def path_latency_s(self, path: DataplanePath) -> float:
        """Static one-way latency estimate (links + processing), ignoring
        link state and MACs — used for PathMeta latency estimates.

        Mirrors the link selection of :meth:`walk`: at a peering boundary
        (seg-last hop followed by a seg-first hop of a *different* AS) the
        current record carries the peer hop field minted during beaconing,
        whose oriented egress is the peering interface — so the peer-link
        latency is charged, not the seg-last parent egress.  A link whose
        far end is not the next AS on the path would make :meth:`walk`
        fail with ``path-link-mismatch``, so its latency is not charged.

        Which links a segment crosses is memoised on the (frozen) segment
        per topology — interfaces are only ever added, never re-homed — and
        the latencies are read live, in the original summation order.
        """
        total = 0.0
        processing = self.router_processing_s
        previous: Optional[HopRecord] = None
        for index, segment in enumerate(path.segments):
            records = segment.records(index)
            if previous is not None:
                joint = self._link_crossed(previous, records[0])
                if joint is not None:
                    total += joint.latency_s
            memo = segment.__dict__.get("_links")
            if memo is None or memo[0] is not self.topology:
                memo = segment.__dict__["_links"] = (self.topology, tuple(
                    self._link_crossed(here, there)
                    for here, there in zip(records, records[1:])
                ))
            for link in memo[1]:
                total += processing
                if link is not None:
                    total += link.latency_s
            total += processing
            previous = records[-1]
        return total

    def _link_crossed(
        self, record: HopRecord, next_record: HopRecord
    ) -> Optional[Link]:
        """The link a packet takes from ``record`` to ``next_record``, if any."""
        if next_record.hop.ia == record.hop.ia:
            # Segment switch inside one AS (core joint, shortcut
            # crossover): no link is crossed.
            return None
        _, egress = record.oriented()
        link = self.topology.link_between(record.hop.ia, egress)
        if link is None:
            return None
        iface = self.topology.get(record.hop.ia).interfaces[egress]
        return link if iface.remote_ia == next_record.hop.ia else None

    # -- event-driven delivery -----------------------------------------------------

    def send(
        self,
        sim: Simulator,
        packet: ScionPacket,
        on_delivered: Callable[[ScionPacket], None],
        on_dropped: Optional[Callable[[ScionPacket, str, DropLocation], None]] = None,
        on_scmp: Optional[Callable[[ScionPacket, ScmpMessage], None]] = None,
    ) -> None:
        """Deliver a packet hop by hop through the event simulator.

        ``on_dropped`` receives the drop reason plus the :class:`DropLocation`
        (AS and egress ifid when attributable).  ``on_scmp`` receives the
        SCMP error the dropping router routes back to the source, for drops
        that produce one — chaos loss never does, and queue overflows only
        produce the (non-interface-scoped) QUEUE_FULL congestion signal
        when ``queue_full_scmp`` is set, so the source cannot mistake
        congestion for a dead link.
        """
        trace_span = None
        tracer = self._telemetry.tracer
        if tracer.enabled:
            trace_span = tracer.open(
                "packet.send", now=sim.now,
                src=str(packet.src.ia), dst=str(packet.dst.ia),
            )
        self._hop(sim, packet, None, on_delivered, on_dropped, on_scmp,
                  trace_span)

    def _hop(
        self,
        sim: Simulator,
        packet: ScionPacket,
        arrival_ifid: Optional[int],
        on_delivered: Callable[[ScionPacket], None],
        on_dropped: Optional[Callable[[ScionPacket, str, DropLocation], None]],
        on_scmp: Optional[Callable[[ScionPacket, ScmpMessage], None]] = None,
        trace_span=None,
    ) -> None:
        records = packet.path.forwarding_plan()
        if not (0 <= packet.curr_hop < len(records)):
            self._drop(
                packet, "hop-pointer-out-of-range", DropLocation(),
                on_dropped, on_scmp,
                trace_span=trace_span, now=sim.now,
            )
            return
        record = records[packet.curr_hop]
        next_record = (
            records[packet.curr_hop + 1]
            if packet.curr_hop + 1 < len(records) else None
        )
        router = self.routers.get(record.hop.ia)
        if router is None:
            self._drop(
                packet, "unknown-as", DropLocation(ia=record.hop.ia),
                on_dropped, on_scmp,
                trace_span=trace_span, now=sim.now,
            )
            return
        decision = router.decide(record, next_record, arrival_ifid, sim.now)
        tracer = self._telemetry.tracer
        if decision.verdict is Verdict.DELIVER:
            done = sim.now + self.router_processing_s
            if trace_span is not None:
                tracer.add("packet.delivered", now=done, parent=trace_span,
                           **{"as": str(record.hop.ia)})
                tracer.end(trace_span, now=done)
            sim.schedule(self.router_processing_s, on_delivered, packet)
            return
        if decision.verdict is Verdict.CROSSOVER:
            packet.advance()
            sim.schedule(
                self.router_processing_s,
                self._hop, sim, packet, None, on_delivered, on_dropped, on_scmp,
                trace_span,
            )
            return
        if decision.verdict is not Verdict.FORWARD:
            location = DropLocation(ia=record.hop.ia, ifid=decision.egress_ifid)
            self._drop(
                packet, decision.verdict.value, location, on_dropped, on_scmp,
                scmp=self._scmp_for_verdict(decision, record.hop.ia),
                trace_span=trace_span, now=sim.now,
            )
            return
        egress = decision.egress_ifid
        location = DropLocation(ia=record.hop.ia, ifid=egress)
        link = self.topology.link_between(record.hop.ia, egress)
        if link is None:
            self._drop(packet, "no-link", location, on_dropped, on_scmp,
                       trace_span=trace_span, now=sim.now)
            return
        if not router.try_enqueue(egress):
            # Bounded egress queue overflow: congestion, not failure.
            # With ``queue_full_scmp`` the router routes a QUEUE_FULL
            # error back so the sender can back off; by default it sheds
            # silently (the legacy behaviour).  Either way no revocation
            # is minted — the link is healthy, just busy.
            self._drop(
                packet, Verdict.DROP_QUEUE_FULL.value, location,
                on_dropped, on_scmp,
                scmp=(queue_full(str(record.hop.ia), egress)
                      if self.queue_full_scmp else None),
                trace_span=trace_span, now=sim.now,
            )
            return
        iface = self.topology.get(record.hop.ia).interfaces[egress]
        packet.advance()
        if trace_span is not None:
            tracer.add("router.hop", now=sim.now, parent=trace_span,
                       egress=str(egress), **{"as": str(record.hop.ia)})

        def deliver() -> None:
            router.release(egress)
            self._hop(sim, packet, iface.remote_ifid, on_delivered,
                      on_dropped, on_scmp, trace_span)

        def drop(reason: str) -> None:
            router.release(egress)
            if reason == "link-down":
                router.link_down_drops.inc()
            elif reason == "chaos-corrupt":
                # A mangled frame is rejected by the *receiving* router's
                # CRC/MAC check — attribute it there so wire corruption is
                # distinguishable from silent loss in the drop telemetry.
                receiver = self.routers.get(iface.remote_ia)
                if receiver is not None:
                    receiver.corrupt_frame_drops.inc()
            # Only a down link is a router-attributable failure; chaos loss
            # and corruption vanish without an error message.
            scmp = (
                interface_down(str(location.ia), egress)
                if reason == "link-down" else None
            )
            self._drop(packet, reason, location, on_dropped, on_scmp, scmp,
                       trace_span=trace_span, now=sim.now)

        link.transmit(sim, str(record.hop.ia), packet.size_bytes(),
                      deliver=deliver, drop=drop)

    def _drop(
        self,
        packet: ScionPacket,
        reason: str,
        location: DropLocation,
        on_dropped: Optional[Callable[[ScionPacket, str, DropLocation], None]],
        on_scmp: Optional[Callable[[ScionPacket, ScmpMessage], None]] = None,
        scmp: Optional[ScmpMessage] = None,
        trace_span=None,
        now: Optional[float] = None,
    ) -> None:
        if trace_span is not None:
            tracer = self._telemetry.tracer
            at = "" if location.ia is None else str(location.ia)
            tracer.add("packet.drop", now=now, parent=trace_span,
                       status="error", reason=reason, **{"as": at})
            if scmp is not None:
                tracer.add("scmp.emit", now=now, parent=trace_span,
                           status="error", type=scmp.scmp_type.name)
            tracer.end(trace_span, now=now, status="error")
        if on_dropped is not None:
            on_dropped(packet, reason, location)
        if scmp is not None and on_scmp is not None:
            on_scmp(packet, scmp)
