"""End-to-end packet delivery across the simulated SCION topology.

Two modes drive one per-hop step (:meth:`ScionDataplane._step`: router
lookup, the router's decision, egress interface -> link, "does this link
lead to the next AS on the path"):

* :meth:`ScionDataplane.probe` — a synchronous walk used by measurement
  campaigns (millions of pings): verifies every hop MAC, checks link state
  and registered link faults, and returns the round-trip time analytically.
* :meth:`ScionDataplane.send` — event-driven delivery through the
  discrete-event simulator, used by the packet-level experiments
  (dispatcher bottleneck, Hercules transfers).

They do not share queueing (egress queues and link transmitters exist only
event-driven: the walk is a send on an idle network) nor, today, the
processing-delay accounting: the walk charges ``router_processing_s`` at
every router, ``send`` only at crossover and delivery, because the
``packet_events`` digest pins arrival times (ROADMAP 4(a)).
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
    """Outcome of walking one path.  A one-way ``walk`` can succeed and still
    name a ``failure`` (``<reason>-reply`` at ``failed_at``): the link fault
    that would drop the echo reply, which ``probe`` reports as a failure."""

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
    #: expired). Loss and registered link faults produce no SCMP, analytic
    #: walks never hit a queue, and event-driven queue overflows are shed
    #: silently.
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
        experiment): the forwarding plan is the path's cached tuple, instance
        attributes are bound to locals once, and a hop costs one call into
        the shared step (:meth:`_step`) plus the tuple it answers with.

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

    def _step(
        self, record: HopRecord, next_record: Optional[HopRecord],
        arrival_ifid: Optional[int], now: float,
    ) -> tuple:
        """One hop at one router, the part every mode shares:
        ``(stopped, router, decision, link, iface)``.

        ``stopped`` names what ended the packet other than the router's own
        verdict (``unknown-as``, ``no-link``, ``path-link-mismatch``).  With
        None there, ``link`` and ``iface`` are the egress of a FORWARD
        decision, known to lead to the next AS on the path (None for other
        verdicts).  Link state, faults, queueing and delay are the drivers'.
        """
        router = self.routers.get(record.hop.ia)
        if router is None:
            return "unknown-as", None, None, None, None
        decision = router.decide(record, next_record, arrival_ifid, now)
        if decision.verdict is not Verdict.FORWARD:
            return None, router, decision, None, None
        # ``router.topology`` is this AS's entry in ``self.topology``.
        stopped, link, iface = self._egress(
            router.topology.interfaces, decision.egress_ifid, next_record
        )
        return stopped, router, decision, link, iface

    def _egress(self, interfaces: dict, egress_ifid: int, next_record: HopRecord):
        """``(stopped, link, iface)`` for an AS's egress interface id: stopped
        unless the link exists and its far end is the AS of ``next_record``."""
        iface = interfaces.get(egress_ifid)
        link = None if iface is None else self.topology.links.get(iface.link_name)
        if link is None:
            return "no-link", None, None
        if next_record.hop.ia != iface.remote_ia:
            return "path-link-mismatch", None, None
        return None, link, iface

    def _walk(self, path: DataplanePath, now: float) -> ProbeResult:
        records = path.forwarding_plan()
        if not records:
            return ProbeResult(False, failure="empty-path")
        step = self._step
        processing = self.router_processing_s
        count = len(records)
        delay = 0.0
        # Touched only where a crossed link has registered faults: the delay
        # they added, and (link, far-end AS) for the echo reply's turn.
        extra, faulted = 0.0, ()
        arrival_ifid: Optional[int] = None
        index = 0
        while index < count:
            record = records[index]
            index += 1
            next_record = records[index] if index < count else None
            stopped, router, decision, link, iface = step(
                record, next_record, arrival_ifid, now
            )
            record_ia = record.hop.ia
            if stopped:
                return ProbeResult(False, failure=stopped, failed_at=record_ia)
            delay += processing
            if link is None:
                verdict = decision.verdict
                if verdict is Verdict.CROSSOVER:
                    arrival_ifid = None
                    continue
                if verdict is not Verdict.DELIVER:
                    return self._verdict_result(decision, record_ia, now)
                # The echo reply reverses the path: each faulted link is
                # consulted again for its far end's sending direction, so an
                # asymmetric cut fails the round trip after a clean walk.
                rtt = 2 * delay + extra
                for crossed, far in faulted:
                    reply = crossed.consult_faults(now, str(far), 0.0)
                    if isinstance(reply, str):
                        return ProbeResult(
                            True, one_way_s=delay + extra,
                            failure=reply + "-reply", failed_at=far,
                        )
                    rtt += reply[0]
                return ProbeResult(True, rtt_s=rtt, one_way_s=delay + extra)
            if not link.up:
                router.link_down_drops.inc()
                scmp = interface_down(str(record_ia), decision.egress_ifid)
                return ProbeResult(
                    False, failure="link-down", failed_at=record_ia,
                    failed_ifid=decision.egress_ifid,
                    scmp=scmp, revocation=self.revocation_for(scmp, now),
                )
            if link._faults:
                # After the ``up`` check, as in ``Link.transmit``.  A fault's
                # drop (partition, chaos loss) is silent: routers cannot see
                # it, so no SCMP and no revocation.
                verdict = link.consult_faults(now, str(record_ia), 0.0)
                if isinstance(verdict, str):
                    return ProbeResult(
                        False, failure=verdict, failed_at=record_ia,
                        failed_ifid=decision.egress_ifid,
                    )
                extra += verdict[0]
                faulted += ((link, iface.remote_ia),)
            delay += link.latency_s
            arrival_ifid = iface.remote_ifid
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
            index += 1
            next_record = records[index] if index < len(records) else None
            stopped, _, decision, link, iface = self._step(
                record, next_record, arrival_ifid, now
            )
            if stopped:
                return PathAnalysis(False, (), 0.0, stopped)
            delay += self.router_processing_s
            if link is not None:
                links.append(link)
                delay += link.latency_s
                arrival_ifid = iface.remote_ifid
            elif decision.verdict is Verdict.DELIVER:
                return PathAnalysis(True, tuple(links), 2 * delay)
            elif decision.verdict is Verdict.CROSSOVER:
                arrival_ifid = None
            else:
                return PathAnalysis(False, (), 0.0, decision.verdict.value)
        return PathAnalysis(False, (), 0.0, "fell-off-path")

    def probe(self, path: DataplanePath, now: float) -> ProbeResult:
        """Round-trip probe (SCMP echo semantics): forward walk doubled.

        SCION replies reverse the same path, so a successful forward walk
        implies a successful reverse walk under the same link state —
        *except* where a link fault cuts only the reply's direction, which
        the walk names beside its one-way success and this makes a failure.
        """
        result = self.walk(path, now)
        if result.failure and result.success:
            result = ProbeResult(
                False, failure=result.failure, failed_at=result.failed_at
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

    def path_latency_s(self, path: DataplanePath) -> float:
        """Static one-way latency estimate (links + processing), ignoring
        link state and MACs — used for PathMeta latency estimates.

        Selects links as the per-hop step does (:meth:`_egress`): at a
        peering boundary (seg-last hop followed by a seg-first hop of a
        *different* AS) the current record carries the peer hop field minted
        during beaconing, whose oriented egress is the peering interface — so
        the peer-link latency is charged, not the seg-last parent egress.

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
        interfaces = self.topology.get(record.hop.ia).interfaces
        return self._egress(interfaces, record.oriented()[1], next_record)[1]

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
        that produce one — link faults (chaos loss, partitions) and queue
        overflows never do, so the source cannot mistake loss or congestion
        for a dead link.
        """
        trace_span = None
        tracer = self._telemetry.tracer
        if tracer.enabled:
            trace_span = tracer.open(
                "packet.send", now=sim.now,
                src=str(packet.src.ia), dst=str(packet.dst.ia),
            )

        def dropped(reason: str, location: DropLocation, scmp=None) -> None:
            if trace_span is not None:
                at = "" if location.ia is None else str(location.ia)
                tracer.add("packet.drop", now=sim.now, parent=trace_span,
                           status="error", reason=reason, **{"as": at})
                if scmp is not None:
                    tracer.add("scmp.emit", now=sim.now, parent=trace_span,
                               status="error", type=scmp.scmp_type.name)
                tracer.end(trace_span, now=sim.now, status="error")
            if on_dropped is not None:
                on_dropped(packet, reason, location)
            if scmp is not None and on_scmp is not None:
                on_scmp(packet, scmp)

        self._hop(sim, packet, None, on_delivered, dropped, trace_span)

    def _hop(
        self,
        sim: Simulator,
        packet: ScionPacket,
        arrival_ifid: Optional[int],
        on_delivered: Callable[[ScionPacket], None],
        dropped: Callable[..., None],
        trace_span,
    ) -> None:
        """One hop of an event-driven packet; ``dropped(reason, location,
        scmp=None)`` is the packet's drop handler built by :meth:`send`."""
        records = packet.path.forwarding_plan()
        if not (0 <= packet.curr_hop < len(records)):
            dropped("hop-pointer-out-of-range", DropLocation())
            return
        record = records[packet.curr_hop]
        following = packet.curr_hop + 1
        next_record = records[following] if following < len(records) else None
        stopped, router, decision, link, iface = self._step(
            record, next_record, arrival_ifid, sim.now
        )
        if stopped:
            dropped(stopped, DropLocation(ia=record.hop.ia))
            return
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
                self._hop, sim, packet, None, on_delivered, dropped, trace_span,
            )
            return
        egress = decision.egress_ifid
        location = DropLocation(ia=record.hop.ia, ifid=egress)
        if link is None:
            dropped(decision.verdict.value, location,
                    self._scmp_for_verdict(decision, record.hop.ia))
            return
        if not router.try_enqueue(egress):
            # Bounded egress queue overflow: congestion, not failure.  The
            # router sheds silently — no SCMP the source could mistake for
            # a dead link, and no revocation: the link is healthy, just busy.
            dropped(Verdict.DROP_QUEUE_FULL.value, location)
            return
        packet.advance()
        if trace_span is not None:
            tracer.add("router.hop", now=sim.now, parent=trace_span,
                       egress=str(egress), **{"as": str(record.hop.ia)})

        def deliver() -> None:
            router.release(egress)
            self._hop(sim, packet, iface.remote_ifid, on_delivered, dropped,
                      trace_span)

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
            # Only a down link is a router-attributable failure; link faults
            # (chaos loss and corruption, partitions) vanish without an
            # error message.
            dropped(reason, location,
                    interface_down(str(location.ia), egress)
                    if reason == "link-down" else None)

        link.transmit(sim, str(record.hop.ia), packet.size_bytes(),
                      deliver=deliver, drop=drop)
