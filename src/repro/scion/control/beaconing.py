"""Beacon propagation: core beaconing and intra-ISD (down) beaconing.

Core ASes originate PCBs over core links to build core segments; they also
originate PCBs toward their children to build intra-ISD segments, which
non-core ASes extend further down. Propagation is run in synchronous rounds
to a fixed point, which on a static topology is equivalent to the
steady state of the periodic beaconing in a live deployment.

Beacon stores apply a diversity-aware selection policy: from all beacons
known per origin, the ``k`` propagated onward are chosen shortest-first
with a greedy bonus for covering interfaces not yet represented — this is
what gives SCIERA its large usable path counts (Figure 8 of the paper)
rather than ``k`` copies of near-identical routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import Telemetry, resolve
from repro.scion.addr import IA
from repro.scion.control.segments import ASEntry, Beacon, BeaconError, PeerEntry
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.scion.path import HopField
from repro.scion.topology import GlobalTopology, Interface, LinkType


@dataclass
class BeaconStoreStats:
    """Mutation counters of one beacon store (fed to dashboards)."""

    inserted: int = 0
    evicted: int = 0
    purged_expired: int = 0


class BeaconStore:
    """Per-AS store of received (terminated) beacons, grouped by origin.

    Lookups and inserts that carry a clock (``now``) purge beacons whose
    earliest hop field has expired — a store must never serve a segment
    the data plane would reject.
    """

    def __init__(self, capacity_per_origin: int = 48):
        self.capacity_per_origin = capacity_per_origin
        self._by_origin: Dict[IA, Dict[str, Beacon]] = {}
        self.stats = BeaconStoreStats()

    def purge_expired(self, now: float) -> int:
        """Drop every beacon past its expiry; returns how many went."""
        purged = 0
        for origin in list(self._by_origin):
            bucket = self._by_origin[origin]
            stale = [fp for fp, b in bucket.items() if b.expires_at() <= now]
            for fp in stale:
                del bucket[fp]
            purged += len(stale)
            if not bucket:
                del self._by_origin[origin]
        self.stats.purged_expired += purged
        return purged

    def insert(self, beacon: Beacon, now: Optional[float] = None) -> bool:
        """Insert a beacon; returns True if the store changed."""
        if now is not None:
            self.purge_expired(now)
            if beacon.expires_at() <= now:
                self.stats.purged_expired += 1
                return False
        origin = beacon.origin_ia
        bucket = self._by_origin.setdefault(origin, {})
        fp = beacon.interface_fingerprint()
        if fp in bucket:
            return False
        if len(bucket) >= self.capacity_per_origin:
            # Evict the longest stored beacon if the newcomer is shorter;
            # otherwise drop the newcomer.
            worst_fp = max(bucket, key=lambda f: (len(bucket[f]), f))
            if len(beacon) >= len(bucket[worst_fp]):
                return False
            del bucket[worst_fp]
            self.stats.evicted += 1
        bucket[fp] = beacon
        self.stats.inserted += 1
        return True

    def origins(self) -> List[IA]:
        return sorted(self._by_origin)

    def all_beacons(self, now: Optional[float] = None) -> List[Beacon]:
        if now is not None:
            self.purge_expired(now)
        out: List[Beacon] = []
        for origin in self.origins():
            out.extend(self._by_origin[origin].values())
        return out

    def beacons_from(self, origin: IA, now: Optional[float] = None) -> List[Beacon]:
        if now is not None:
            self.purge_expired(now)
        return list(self._by_origin.get(origin, {}).values())

    # -- crash/restart support -------------------------------------------------

    def snapshot(self) -> Dict[IA, Dict[str, Beacon]]:
        """A restorable copy of the store contents (beacons are frozen)."""
        return {
            origin: dict(bucket) for origin, bucket in self._by_origin.items()
        }

    def restore(self, snapshot: Dict[IA, Dict[str, Beacon]]) -> None:
        """Replace the contents with a snapshot (warm restart)."""
        self._by_origin = {
            origin: dict(bucket) for origin, bucket in snapshot.items()
        }

    def clear(self) -> None:
        """Drop all contents (cold restart / crash)."""
        self._by_origin = {}

    def select(self, origin: IA, k: int, max_detour: int = 2,
               now: Optional[float] = None) -> List[Beacon]:
        """Diversity-aware best-k selection for one origin.

        ``max_detour`` drops beacons more than that many AS hops longer
        than the shortest known for the origin: without the bound, huge
        around-the-globe segments get registered as "alternates" for every
        pair and a single distant outage perturbs everyone's path counts —
        which contradicts the paper's Figure 9 (most pairs see zero median
        deviation).
        """
        if now is not None:
            self.purge_expired(now)
        candidates = sorted(
            self._by_origin.get(origin, {}).values(),
            key=lambda b: (len(b), b.interface_fingerprint()),
        )
        if candidates and max_detour is not None:
            shortest = len(candidates[0])
            candidates = [b for b in candidates if len(b) <= shortest + max_detour]
        if len(candidates) <= k:
            return candidates
        chosen: List[Beacon] = []
        covered: Set[str] = set()
        # Interface sets are built once per call, not once per greedy round.
        ifaces = [
            {
                f"{e.ia}#{ifid}" for e in beacon.entries
                for ifid in (e.hop.cons_ingress, e.hop.cons_egress)
            }
            for beacon in candidates
        ]

        def score(i: int) -> Tuple[int, int, str]:
            beacon = candidates[i]
            new = len(ifaces[i] - covered)
            return (-new, len(beacon), beacon.interface_fingerprint())

        remaining = list(range(len(candidates)))
        while remaining and len(chosen) < k:
            best = min(remaining, key=score)
            remaining.remove(best)
            chosen.append(candidates[best])
            covered |= ifaces[best]
        return chosen

    def select_all(self, k_per_origin: int, max_detour: int = 2,
                   now: Optional[float] = None) -> List[Beacon]:
        out: List[Beacon] = []
        if now is not None:
            self.purge_expired(now)
        for origin in self.origins():
            out.extend(self.select(origin, k_per_origin, max_detour))
        return out


@dataclass
class BeaconingStats:
    rounds: int = 0
    beacons_sent: int = 0
    beacons_accepted: int = 0
    beacons_rejected_loop: int = 0
    beacons_rejected_invalid: int = 0
    beacons_rejected_replayed: int = 0


#: Maximum acceptable beacon age at receive time.  Honest propagation in
#: this model is instantaneous (beacons carry the engine's own timestamp)
#: and real SCION origination periods are seconds, so anything an hour old
#: can only be a replayed stale PCB — comfortably below the 24 h hop-field
#: expiry that would otherwise be the only freshness bound.
MAX_BEACON_AGE_S = 3600.0


class BeaconingEngine:
    """Runs core and intra-ISD beaconing over a :class:`GlobalTopology`."""

    def __init__(
        self,
        topology: GlobalTopology,
        forwarding_keys: Dict[IA, SymmetricKey],
        signing_keys: Dict[IA, RsaKeyPair],
        key_resolver: Callable[[IA], "RsaPublicKey"],
        timestamp: int,
        k_propagate: int = 6,
        store_capacity: int = 48,
        verify_beacons: bool = True,
        max_beacon_age_s: float = MAX_BEACON_AGE_S,
        telemetry: Optional[Telemetry] = None,
    ):
        self.topology = topology
        self.forwarding_keys = forwarding_keys
        self.signing_keys = signing_keys
        self.key_resolver = key_resolver
        self.timestamp = timestamp
        self.k_propagate = k_propagate
        self.verify_beacons = verify_beacons
        #: Freshness bound on received beacons.  Independent of
        #: ``verify_beacons``: staleness needs no crypto to detect.
        self.max_beacon_age_s = max_beacon_age_s
        self.stats = BeaconingStats()
        tel = resolve(telemetry)
        self._telemetry = tel
        self._tracer = tel.tracer
        # Security attribution for adversarial beacon shapes.
        self._security_forged_beacons = tel.metrics.counter(
            "security_forged_beacons_total",
            "Beacons rejected for failing signature verification.",
        )
        self._security_replayed_beacons = tel.metrics.counter(
            "security_replayed_beacons_total",
            "Beacons rejected for being older than the freshness bound.",
        )
        #: beacon fingerprint -> root span of its origination trace, so a
        #: stored beacon's later propagation and registration link back to
        #: the PCB that started the diffusion.
        self._beacon_spans: Dict[str, object] = {}
        self.core_stores: Dict[IA, BeaconStore] = {
            ia: BeaconStore(store_capacity) for ia in topology.ases
        }
        self.down_stores: Dict[IA, BeaconStore] = {
            ia: BeaconStore(store_capacity) for ia in topology.ases
        }
        #: (sender, beacon fingerprint, egress ifid) already propagated.
        self._sent: Set[Tuple[IA, str, int]] = set()

    # -- crash/restart support ---------------------------------------------------

    def snapshot_stores(self) -> Dict[str, Dict[IA, Dict]]:
        """Snapshot every beacon store (for supervisor warm restarts)."""
        return {
            "core": {ia: s.snapshot() for ia, s in self.core_stores.items()},
            "down": {ia: s.snapshot() for ia, s in self.down_stores.items()},
        }

    def restore_stores(self, snapshot: Dict[str, Dict[IA, Dict]]) -> None:
        """Restore every beacon store from a snapshot (warm restart)."""
        for ia, store in self.core_stores.items():
            store.restore(snapshot["core"].get(ia, {}))
        for ia, store in self.down_stores.items():
            store.restore(snapshot["down"].get(ia, {}))

    def clear_stores(self) -> None:
        """Empty every beacon store (crash / cold restart)."""
        for store in self.core_stores.values():
            store.clear()
        for store in self.down_stores.values():
            store.clear()
        self._sent.clear()

    # -- entry construction ------------------------------------------------------

    def _peer_entries(self, ia: IA, egress: int, beta: int) -> Tuple[PeerEntry, ...]:
        """Peer entries advertising each peering link of ``ia``."""
        if egress == 0:
            return ()
        topo = self.topology.get(ia)
        key = self.forwarding_keys[ia]
        peers: List[PeerEntry] = []
        for iface in sorted(topo.interfaces.values(), key=lambda i: i.ifid):
            if iface.link_type is not LinkType.PEER:
                continue
            hop = HopField.create(
                ia, key, self.timestamp,
                cons_ingress=iface.ifid, cons_egress=egress, beta=beta,
            )
            peers.append(
                PeerEntry(
                    peer_ia=iface.remote_ia,
                    peer_ifid=iface.remote_ifid,
                    local_ifid=iface.ifid,
                    hop=hop,
                )
            )
        return tuple(peers)

    def _make_entry(self, ia: IA, ingress: int, egress: int, beta: int) -> ASEntry:
        hop = HopField.create(
            ia, self.forwarding_keys[ia], self.timestamp,
            cons_ingress=ingress, cons_egress=egress, beta=beta,
        )
        return ASEntry(
            ia=ia,
            hop=hop,
            peers=self._peer_entries(ia, egress, beta),
            mtu=self.topology.get(ia).mtu,
        )

    # -- receive side --------------------------------------------------------------

    def _receive(self, store: BeaconStore, receiver: IA, ingress: int,
                 beacon: Beacon, parent_span=None) -> bool:
        if receiver in beacon.as_sequence():
            self.stats.beacons_rejected_loop += 1
            return False
        if self.timestamp - beacon.timestamp > self.max_beacon_age_s:
            # Replayed stale PCB: valid-looking (possibly even correctly
            # signed) but minted far in the past.  Accepting it would let
            # an attacker resurrect withdrawn topology.
            self.stats.beacons_rejected_replayed += 1
            self._security_replayed_beacons.inc()
            if self._telemetry.enabled:
                self._telemetry.events.record(
                    float(self.timestamp), "security", "replayed-beacon",
                    target=str(receiver),
                    detail=f"beacon from {beacon.origin_ia} aged "
                           f"{self.timestamp - beacon.timestamp:.0f}s",
                    severity="critical",
                )
            if parent_span is not None:
                self._tracer.add(
                    "beacon.reject", now=float(self.timestamp),
                    parent=parent_span, status="error",
                    receiver=str(receiver), reason="replayed-stale",
                )
            return False
        if self.verify_beacons:
            try:
                beacon.verify(self.key_resolver)
            except BeaconError:
                self.stats.beacons_rejected_invalid += 1
                self._security_forged_beacons.inc()
                if self._telemetry.enabled:
                    self._telemetry.events.record(
                        float(self.timestamp), "security", "forged-beacon",
                        target=str(receiver),
                        detail=f"beacon claiming origin {beacon.origin_ia} "
                               "failed signature verification",
                        severity="critical",
                    )
                if parent_span is not None:
                    self._tracer.add(
                        "beacon.reject", now=float(self.timestamp),
                        parent=parent_span, status="error",
                        receiver=str(receiver), reason="invalid-signature",
                    )
                return False
        terminal = self._make_entry(receiver, ingress, 0, beacon.next_beta())
        terminated = beacon.with_entry(terminal, self.signing_keys[receiver])
        if store.insert(terminated):
            self.stats.beacons_accepted += 1
            if parent_span is not None:
                self._tracer.add(
                    "beacon.accept", now=float(self.timestamp),
                    parent=parent_span,
                    receiver=str(receiver), ingress=str(ingress),
                )
                # Termination mints a new fingerprint; remap it so later
                # propagation of the stored beacon finds the same trace.
                self._beacon_spans[terminated.interface_fingerprint()] = (
                    parent_span
                )
            return True
        return False

    def receive_external(
        self, receiver: IA, ingress: int, beacon: Beacon,
        segment: str = "down",
    ) -> bool:
        """Ingest a beacon handed over by a neighbor outside :meth:`run`.

        This is the engine's untrusted network-facing surface: anything a
        (possibly rogue) neighbor claims is a PCB arrives here and passes
        the same loop, freshness, and signature gates as in-round
        propagation.  Returns True only if the beacon was stored.
        """
        stores = self.core_stores if segment == "core" else self.down_stores
        if receiver not in stores:
            raise BeaconError(f"unknown receiver {receiver}")
        return self._receive(stores[receiver], receiver, ingress, beacon)

    # -- propagation --------------------------------------------------------------

    def _extend_and_send(
        self,
        stores: Dict[IA, BeaconStore],
        sender: IA,
        beacon: Beacon,
        iface: Interface,
    ) -> bool:
        """Replace the sender's terminal entry with one egressing ``iface``
        and deliver to the neighbor."""
        key = (sender, beacon.interface_fingerprint(), iface.ifid)
        if key in self._sent:
            return False
        self._sent.add(key)
        if iface.remote_ia in beacon.as_sequence()[:-1]:
            return False
        prefix_entries = beacon.entries[:-1]
        ingress = beacon.entries[-1].hop.cons_ingress
        beta = (
            prefix_entries[-1].hop.next_beta() if prefix_entries else beacon.seg_id
        )
        stub = Beacon.__new__(Beacon)
        object.__setattr__(stub, "timestamp", beacon.timestamp)
        object.__setattr__(stub, "seg_id", beacon.seg_id)
        object.__setattr__(stub, "entries", prefix_entries)
        extended = stub.with_entry(
            self._make_entry(sender, ingress, iface.ifid, beta),
            self.signing_keys[sender],
        )
        self.stats.beacons_sent += 1
        root = None
        if self._tracer.enabled:
            root = self._beacon_spans.get(beacon.interface_fingerprint())
            if root is not None:
                self._tracer.add(
                    "beacon.propagate", now=float(self.timestamp),
                    parent=root, sender=str(sender), egress=str(iface.ifid),
                )
        return self._receive(
            stores[iface.remote_ia], iface.remote_ia, iface.remote_ifid,
            extended, parent_span=root,
        )

    def _originate(self, origin: IA, iface: Interface,
                   stores: Dict[IA, BeaconStore]) -> bool:
        beacon = Beacon.originate(
            origin,
            self.forwarding_keys[origin],
            self.signing_keys[origin],
            self.timestamp,
            iface.ifid,
        )
        self.stats.beacons_sent += 1
        root = None
        if self._tracer.enabled:
            root = self._tracer.open(
                "beacon.originate", now=float(self.timestamp),
                origin=str(origin), egress=str(iface.ifid),
            )
        return self._receive(
            stores[iface.remote_ia], iface.remote_ia, iface.remote_ifid,
            beacon, parent_span=root,
        )

    def run(self, max_rounds: int = 64) -> int:
        """Run both beaconing processes to a fixed point; returns rounds."""
        core_ases = self.topology.core_ases()
        # Origination.
        for origin in core_ases:
            topo = self.topology.get(origin)
            for iface in sorted(topo.interfaces.values(), key=lambda i: i.ifid):
                if iface.link_type is LinkType.CORE:
                    self._originate(origin, iface, self.core_stores)
                elif iface.link_type is LinkType.CHILD:
                    self._originate(origin, iface, self.down_stores)
        # Propagation rounds.
        rounds = 0
        for _ in range(max_rounds):
            changed = False
            rounds += 1
            # Core beaconing: core ASes extend to core neighbors.
            for sender in core_ases:
                topo = self.topology.get(sender)
                core_ifaces = [
                    i for i in sorted(topo.interfaces.values(), key=lambda x: x.ifid)
                    if i.link_type is LinkType.CORE
                ]
                store = self.core_stores[sender]
                for origin in store.origins():
                    for beacon in store.select(origin, self.k_propagate):
                        for iface in core_ifaces:
                            if self._extend_and_send(
                                self.core_stores, sender, beacon, iface
                            ):
                                changed = True
            # Intra-ISD beaconing: every AS extends to its children.
            for sender, topo in sorted(self.topology.ases.items()):
                child_ifaces = [
                    i for i in sorted(topo.interfaces.values(), key=lambda x: x.ifid)
                    if i.link_type is LinkType.CHILD
                ]
                if not child_ifaces or topo.is_core:
                    continue  # core origination already happened
                store = self.down_stores[sender]
                for origin in store.origins():
                    for beacon in store.select(origin, self.k_propagate):
                        for iface in child_ifaces:
                            if self._extend_and_send(
                                self.down_stores, sender, beacon, iface
                            ):
                                changed = True
            if not changed:
                break
        self.stats.rounds = rounds
        if self._tracer.enabled:
            for span in self._beacon_spans.values():
                if not span.finished:
                    self._tracer.end(span, now=float(self.timestamp))
        return rounds

    def trace_span_for(self, fingerprint: str):
        """Root span of the trace that produced a stored beacon, if traced."""
        return self._beacon_spans.get(fingerprint)
