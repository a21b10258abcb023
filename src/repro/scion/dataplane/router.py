"""The SCION border router.

Per Section 2 of the paper, a border router: discards the IP-UDP
encapsulation, finds the current hop field, verifies its integrity with an
efficient symmetric operation, moves the hop-field pointer, and forwards to
the next border router or end host. This module implements exactly that
decision logic; actual movement across links is done by
:class:`repro.scion.dataplane.network.ScionDataplane`.

Routers come in two interoperable flavors ("open-source" and "anapaya",
Section 4.5) that share this wire behaviour; the flavor lives on the AS
topology (``AsTopology.flavor``) for heterogeneity accounting only.

Two robustness pieces live here as well:

* a **bounded per-interface egress queue** (:data:`QUEUE_CAPACITY`): a router
  under overload sheds packets with ``DROP_QUEUE_FULL`` instead of
  queueing unboundedly, so congestion stays distinguishable from failure
  (queue drops never produce interface-down SCMP errors or revocations);
* **local interface state**: interfaces an operator or revocation marked
  down produce ``DROP_INTERFACE_DOWN`` with the offending egress attached,
  which the dataplane converts into the SCMP error a real router emits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.obs import CounterBackedStats, Telemetry, resolve
from repro.scion.addr import IA
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.path import DEFAULT_HOP_EXPIRY_S, HopRecord
from repro.scion.scmp import ScmpMessage, interface_down
from repro.scion.topology import AsTopology


class Verdict(enum.Enum):
    FORWARD = "forward"          # send out through `egress_ifid`
    DELIVER = "deliver"          # destination AS reached; hand to end host
    CROSSOVER = "crossover"      # segment switch inside this AS; process next hop
    DROP_BAD_MAC = "drop-bad-mac"
    DROP_INFLATED_HOP = "drop-inflated-hop"
    DROP_EXPIRED = "drop-expired"
    DROP_NO_INTERFACE = "drop-no-interface"
    DROP_INTERFACE_DOWN = "drop-interface-down"
    DROP_WRONG_INGRESS = "drop-wrong-ingress"
    DROP_QUEUE_FULL = "drop-queue-full"


#: Hard upper bound on a hop field's lifetime relative to its segment's
#: info-field timestamp.  Honest beaconing mints hops that expire exactly
#: ``DEFAULT_HOP_EXPIRY_S`` after origination, so anything *strictly*
#: beyond the bound can only come from a forger — including a compromised
#: AS that owns a real forwarding key and can therefore mint hop fields
#: whose MACs verify.  The lifetime bound catches what MAC verification
#: structurally cannot.
MAX_HOP_LIFETIME_S = DEFAULT_HOP_EXPIRY_S

#: Drop verdicts that indicate an *adversarial* packet (tampered or forged
#: hop fields) rather than a stale path or an operational failure; these
#: also count toward ``security_tampered_packets_total``.
_TAMPER_VERDICTS = frozenset(
    {Verdict.DROP_BAD_MAC, Verdict.DROP_INFLATED_HOP}
)


@dataclass(frozen=True)
class RouterDecision:
    verdict: Verdict
    #: Egress interface involved: the forwarding target for FORWARD, the
    #: offending interface for interface-scoped drops (0 when unknown), so
    #: callers can attribute the failure without re-deriving the hop.
    egress_ifid: int = 0
    scmp: Optional[ScmpMessage] = None


#: Shared immutable decisions for the allocation-free fast paths: DELIVER
#: and CROSSOVER carry no per-packet state, and each router reuses one
#: FORWARD decision per egress interface (see ``BorderRouter.decide``).
_DELIVER = RouterDecision(Verdict.DELIVER)
_CROSSOVER = RouterDecision(Verdict.CROSSOVER)


class RouterStats(CounterBackedStats):
    """Registry-backed router accounting.

    ``forwarded`` and ``queue_drops`` stay readable as plain attributes;
    with telemetry enabled they are views over the labelled counter
    families ``router_forwarded_total`` / ``router_queue_drops_total``.
    """

    FIELDS = ("forwarded", "queue_drops")
    PREFIX = "router"


#: Bound on each egress interface's in-flight queue.  Generous — only
#: sustained overload (the dispatcher-style bottleneck experiments) should
#: ever hit it.
QUEUE_CAPACITY = 64


class BorderRouter:
    """Forwarding logic for one AS."""

    def __init__(
        self,
        topology: AsTopology,
        forwarding_key: SymmetricKey,
        telemetry: Optional[Telemetry] = None,
    ):
        self.topology = topology
        self.ia: IA = topology.ia
        self._key = forwarding_key
        tel = resolve(telemetry)
        self._telemetry = tel
        labels = {"as": str(self.ia)}
        self.stats = RouterStats(
            tel.metrics if tel.enabled else None, labels=labels
        )
        # One labelled drop counter per drop verdict, resolved up front so
        # decide() pays a dict lookup + inc only on the (rare) drop branches
        # — and a no-op inc when telemetry is disabled.
        self._drop_counters = {
            verdict: tel.metrics.counter(
                "router_drops_total",
                "Packets dropped at the border router, by reason.",
                labels={**labels, "reason": verdict.value},
            )
            for verdict in Verdict
            if verdict.value.startswith("drop")
        }
        # The dataplane attributes link-down losses to the egress router.
        self.link_down_drops = tel.metrics.counter(
            "router_drops_total",
            "Packets dropped at the border router, by reason.",
            labels={**labels, "reason": "link-down"},
        )
        # Frames that arrived mangled on the wire (chaos corruption) are
        # attributed to the *receiving* router, the node whose CRC/MAC
        # check would reject them in a real deployment.
        self.corrupt_frame_drops = tel.metrics.counter(
            "router_drops_total",
            "Packets dropped at the border router, by reason.",
            labels={**labels, "reason": "corrupt-frame"},
        )
        # Security attribution: every tampered/forged packet this router
        # rejected (bad MAC or inflated hop lifetime), regardless of which
        # specific drop verdict labelled it.
        self.security_tampered = tel.metrics.counter(
            "security_tampered_packets_total",
            "Adversarial packets (tampered or forged hop fields) dropped.",
            labels=labels,
        )
        self._queue_depth: Dict[int, int] = {}
        #: egress ifid -> sim time the down-mark lapses (inf: operator mark)
        self._down_interfaces: Dict[int, float] = {}
        # One immutable FORWARD decision per egress interface, built lazily:
        # forwarding is the overwhelmingly common verdict and the decision
        # for a given egress never changes.
        self._forward_decisions: Dict[int, RouterDecision] = {}

    def decide(
        self,
        record: HopRecord,
        next_record: Optional[HopRecord],
        arrival_ifid: Optional[int],
        now: float,
    ) -> RouterDecision:
        """Process the packet's current hop at this router.

        ``arrival_ifid`` is the interface the frame physically arrived on
        (None when injected by a local end host). Ingress is checked
        strictly mid-segment; at segment starts the hop field's construction
        ingress legitimately differs from the arrival interface (shortcut
        and crossover paths), so the check is relaxed there.
        """
        hop = record.hop
        if hop.ia != self.ia:
            raise ValueError(
                f"router {self.ia} asked to process hop of {hop.ia}"
            )
        if hop.expiry < now:
            return self._drop_decision(Verdict.DROP_EXPIRED, 0)
        if hop.expiry > record.info.timestamp + MAX_HOP_LIFETIME_S:
            return self._drop_decision(Verdict.DROP_INFLATED_HOP, 0)
        if not hop.verify(self._key, record.info.timestamp):
            return self._drop_decision(Verdict.DROP_BAD_MAC, 0)
        ingress, egress = record.oriented()
        if (
            arrival_ifid is not None
            and not record.is_seg_first
            and ingress != arrival_ifid
        ):
            return self._drop_decision(Verdict.DROP_WRONG_INGRESS, 0)

        if next_record is None:
            return _DELIVER
        if record.is_seg_last and next_record.hop.ia == self.ia:
            # Segment switch within this AS (core joint or shortcut):
            # egress comes from the next hop field.
            return _CROSSOVER
        # Normal forwarding — including peering crossovers, where the last
        # hop of a segment egresses over the peer link to a different AS.
        if egress == 0:
            # Terminal hop field but the path continues: malformed.
            return self._drop_decision(Verdict.DROP_NO_INTERFACE, 0)
        if egress not in self.topology.interfaces:
            return self._drop_decision(Verdict.DROP_NO_INTERFACE, egress)
        if egress in self._down_interfaces:
            if now < self._down_interfaces[egress]:
                return self._drop_decision(Verdict.DROP_INTERFACE_DOWN, egress)
            del self._down_interfaces[egress]  # the revocation's TTL ran out
        decision = self._forward_decisions.get(egress)
        if decision is None:
            decision = RouterDecision(Verdict.FORWARD, egress_ifid=egress)
            self._forward_decisions[egress] = decision
        return decision

    def _drop_decision(self, verdict: Verdict, egress_ifid: int) -> RouterDecision:
        self._drop_counters[verdict].inc()
        if verdict in _TAMPER_VERDICTS:
            self.security_tampered.inc()
        return RouterDecision(verdict, egress_ifid=egress_ifid)

    # -- local interface state ---------------------------------------------------

    def mark_interface_down(self, ifid: int, until: float = math.inf) -> None:
        """Locally mark an egress interface unusable.

        A revocation passes its ``expires_at()`` as ``until`` and the mark
        lapses with it (lazily, the next time :meth:`decide` meets the
        interface); an operator mark without a revocation never expires.
        """
        self._down_interfaces[ifid] = max(
            until, self._down_interfaces.get(ifid, until)
        )

    @property
    def down_interfaces(self) -> Set[int]:
        return set(self._down_interfaces)

    def down_interfaces_at(self, now: float) -> Set[int]:
        """The marks still in force at ``now`` (a pure read: nothing lapses)."""
        return {i for i, until in self._down_interfaces.items() if now < until}

    # -- egress queueing ----------------------------------------------------------

    def try_enqueue(self, ifid: int) -> bool:
        """Claim one slot in the egress queue for ``ifid``.

        Returns False — and counts a queue drop — when the bounded queue is
        already full; the caller must then drop with ``DROP_QUEUE_FULL``.
        """
        depth = self._queue_depth.get(ifid, 0)
        if depth >= QUEUE_CAPACITY:
            self.stats.inc("queue_drops")
            self._drop_counters[Verdict.DROP_QUEUE_FULL].inc()
            return False
        self._queue_depth[ifid] = depth + 1
        self.stats.inc("forwarded")
        return True

    def release(self, ifid: int) -> None:
        """Return one queue slot (the frame left the link, or was dropped)."""
        depth = self._queue_depth.get(ifid, 0)
        if depth > 0:
            self._queue_depth[ifid] = depth - 1

    def queue_depth(self, ifid: int) -> int:
        return self._queue_depth.get(ifid, 0)

    def interface_down_scmp(self, ifid: int) -> ScmpMessage:
        return interface_down(str(self.ia), ifid)
