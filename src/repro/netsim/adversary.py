"""Byzantine adversaries: seeded attack primitives against the SCION stack.

The chaos layer (:mod:`repro.netsim.chaos`) models *nature* — crashes,
partitions, loss.  This module models *malice*: a rogue AS (or an on-path
compromised router) that actively forges, replays, tampers, and floods.
Every primitive targets one of the stack's ingestion points and measures
two things, separately:

* **succeeded** — did the attack achieve its goal (forged beacon stored,
  fake revocation quarantining segments, tampered packet delivered,
  spoofed flood admitted)?  On the hardened stack every one of these must
  be False; the ``security-*`` invariants in
  :mod:`repro.netsim.invariants` assert exactly that.
* **detected** — did the stack *attribute* the attack (a rejection counter
  moved, a drop verdict named the tamper)?  Fail-closed without
  attribution is still a finding: an operator who cannot see the attack
  cannot respond to it.

Determinism: the adversary owns a private ``random.Random`` seeded from
its constructor seed and never touches the chaos injector's stream, so
adding adversarial phases to an experiment leaves every legacy fault
digest byte-identical.  :meth:`ByzantineAdversary.event_digest` hashes the
attack/outcome stream the same way the fault injector hashes faults, so a
red-team campaign pins to a single stable digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import List, Optional, Set

import random

from repro.scion.addr import IA
from repro.scion.control.segments import Beacon
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.crypto.rsa import RsaKeyPair
from repro.scion.path import DataplanePath, HopField, PathSegmentHops
from repro.scion.revocation import DEFAULT_REVOCATION_TTL_S, Revocation
from repro.scion.dataplane.router import MAX_HOP_LIFETIME_S


class AdversaryError(Exception):
    """Raised when an attack cannot even be mounted (missing surface)."""


#: Drop verdict values that mean "the router recognised the packet as
#: adversarial" — the attribution signal tamper attacks are scored against.
_TAMPER_DROP_REASONS = frozenset({"drop-bad-mac", "drop-inflated-hop"})


@dataclass(frozen=True)
class AttackOutcome:
    """One mounted attack and how the stack responded."""

    time_s: float
    kind: str
    target: str
    #: The attack achieved its goal (poisoned state, delivered packet,
    #: admitted flood).  Must be False on the hardened stack.
    succeeded: bool
    #: The stack attributed the attack (security counter moved or the
    #: failure verdict named the tamper).
    detected: bool
    detail: str = ""


class ByzantineAdversary:
    """A rogue AS with its own keys, clock, and attack budget.

    The adversary can observe public material (topology, certificates,
    honestly signed tokens it captured earlier) but holds **no** honest
    private key: its signing key pair is freshly generated and anchored in
    no TRC, and its forwarding key is random.  The exceptions are modeled
    explicitly: ``tamper_packet(mode="inflate")`` plays a *compromised
    on-path AS* that owns its own real forwarding key, and replay attacks
    use honestly signed material minted in the past.
    """

    def __init__(
        self,
        network,
        seed: int = 0,
        rogue_ia: Optional[IA] = None,
        event_log=None,
    ):
        self.network = network
        self.seed = seed
        #: Private randomness — never the chaos injector's stream.
        self.rng = random.Random(f"adversary:{seed}")
        self.event_log = event_log
        if rogue_ia is None:
            ases = sorted(network.topology.ases)
            non_core = [
                ia for ia in ases if not network.topology.get(ia).is_core
            ]
            rogue_ia = (non_core or ases)[-1]
        self.rogue_ia = rogue_ia
        #: The rogue's own key material: syntactically valid, anchored in
        #: nothing the honest network trusts.
        self.rogue_signing = RsaKeyPair.generate(
            seed=int.from_bytes(
                hashlib.sha256(f"rogue-sign:{seed}".encode()).digest()[:8],
                "big",
            )
        )
        self.rogue_forwarding = SymmetricKey(
            hashlib.sha256(f"rogue-fwd:{seed}".encode()).digest()
        )
        self.outcomes: List[AttackOutcome] = []
        #: Origin-entry signatures of every forged/replayed beacon this
        #: adversary injected.  Signatures bind the signing key and the
        #: (timestamp-carrying) message, so honest beacons can never
        #: collide with them — unlike ``seg_id``, which any honest
        #: origination at the same instant would reproduce.
        self.forged_beacon_signatures: Set[int] = set()
        self.replayed_beacon_signatures: Set[int] = set()
        #: The exact forged / replayed revocation tokens injected, for the
        #: "never quarantines" invariants (frozen dataclass equality).
        self.forged_revocations: List[Revocation] = []
        self.replayed_revocations: List[Revocation] = []

    # -- bookkeeping ---------------------------------------------------------------

    def _record(
        self,
        time_s: float,
        kind: str,
        target: str,
        succeeded: bool,
        detected: bool,
        detail: str = "",
    ) -> AttackOutcome:
        outcome = AttackOutcome(
            time_s=time_s, kind=kind, target=target,
            succeeded=succeeded, detected=detected, detail=detail,
        )
        self.outcomes.append(outcome)
        if self.event_log is not None:
            status = "SUCCEEDED" if succeeded else (
                "detected" if detected else "failed-silently"
            )
            self.event_log.record(
                time_s, "adversary", kind, target=target,
                detail=f"{status}: {detail}" if detail else status,
                severity="critical" if succeeded else "warning",
            )
        return outcome

    def successes(self, kind: Optional[str] = None) -> List[AttackOutcome]:
        return [
            o for o in self.outcomes
            if o.succeeded and (kind is None or o.kind == kind)
        ]

    def event_digest(self) -> str:
        """Stable digest of the attack/outcome stream (determinism pin)."""
        payload = "\n".join(
            f"{o.time_s:.9f}|{o.kind}|{o.target}|"
            f"{int(o.succeeded)}|{int(o.detected)}|{o.detail}"
            for o in self.outcomes
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- shared helpers ------------------------------------------------------------

    def _engine(self):
        engine = self.network.beaconing
        if engine is None:
            raise AdversaryError(
                "no beaconing engine to attack (network built with "
                "run_beaconing=False)"
            )
        return engine

    def _origin_and_egress(self, exclude: IA) -> "tuple[IA, int]":
        """A core AS to impersonate (not ``exclude``) and one real egress
        interface of it — forged beacons mimic plausible honest shape."""
        topology = self.network.topology
        cores = [ia for ia in topology.core_ases() if ia != exclude]
        if not cores:
            raise AdversaryError("no core AS to impersonate")
        origin = cores[0]
        ifids = sorted(topology.get(origin).interfaces)
        if not ifids:
            raise AdversaryError(f"impersonated core {origin} has no interfaces")
        return origin, ifids[0]

    @staticmethod
    def _victim_ingress(topology, victim: IA) -> int:
        ifids = sorted(topology.get(victim).interfaces)
        if not ifids:
            raise AdversaryError(f"victim {victim} has no interfaces")
        return ifids[0]

    # -- control-plane attacks: beacons ---------------------------------------------

    def forge_beacon(self, victim: IA, now: float) -> AttackOutcome:
        """Inject a PCB claiming a core origin, signed with the rogue key.

        The forgery is structurally perfect (real origin IA, real egress
        interface, intact beta chain) — only the signature gives it away,
        which is exactly what the hardened engine checks.
        """
        engine = self._engine()
        origin, egress = self._origin_and_egress(exclude=victim)
        forged = Beacon.originate(
            origin, self.rogue_forwarding, self.rogue_signing,
            int(now), egress,
        )
        self.forged_beacon_signatures.add(forged.entries[0].signature)
        segment = "core" if self.network.topology.get(victim).is_core else "down"
        rejected_before = engine.stats.beacons_rejected_invalid
        stored = engine.receive_external(
            victim, self._victim_ingress(self.network.topology, victim),
            forged, segment=segment,
        )
        detected = engine.stats.beacons_rejected_invalid > rejected_before
        return self._record(
            now, "forge-beacon", f"{origin}->{victim}",
            succeeded=stored, detected=detected,
            detail=f"rogue-signed PCB impersonating {origin}",
        )

    def replay_beacon(
        self, victim: IA, now: float, age_s: float = 7200.0,
    ) -> AttackOutcome:
        """Replay an honestly signed but stale PCB captured ``age_s`` ago.

        Every signature verifies — only the freshness bound can stop it.
        Resurrecting withdrawn topology is the payoff: paths over links the
        network has since abandoned.
        """
        engine = self._engine()
        origin, egress = self._origin_and_egress(exclude=victim)
        stale_ts = max(0, int(now - age_s))
        captured = Beacon.originate(
            origin,
            self.network.forwarding_keys[origin],
            self.network.signing_keys[origin],
            stale_ts, egress,
        )
        self.replayed_beacon_signatures.add(captured.entries[0].signature)
        segment = "core" if self.network.topology.get(victim).is_core else "down"
        rejected_before = engine.stats.beacons_rejected_replayed
        stored = engine.receive_external(
            victim, self._victim_ingress(self.network.topology, victim),
            captured, segment=segment,
        )
        detected = engine.stats.beacons_rejected_replayed > rejected_before
        return self._record(
            now, "replay-beacon", f"{origin}->{victim}",
            succeeded=stored, detected=detected,
            detail=f"honestly signed PCB aged {now - stale_ts:.0f}s",
        )

    # -- control-plane attacks: revocations ------------------------------------------

    def forge_revocation(
        self,
        ia: IA,
        ifid: int,
        now: float,
        path_server=None,
        daemon=None,
        sign_with_rogue_key: bool = True,
    ) -> AttackOutcome:
        """Claim ``ia``'s interface ``ifid`` died — without ``ia``'s key.

        Success means segments went into quarantine or a daemon marked the
        interface down: a lying neighbor cutting honest links for free.
        """
        token = Revocation(
            ia=ia, ifid=ifid, issued_at=now, reason="interface-down",
        )
        if sign_with_rogue_key:
            token = token.signed_by(self.rogue_signing)
        self.forged_revocations.append(token)
        server = (
            path_server
            if path_server is not None
            else self.network.services[ia].path_server
        )
        registry = server.registry
        rejected_before = (
            registry.stats.revocations_rejected
            + (daemon.stats.revocations_rejected if daemon is not None else 0)
        )
        quarantined = server.revoke(token, now=now)
        accepted = token in registry.active_revocations()
        daemon_marked = False
        if daemon is not None:
            was_down = token.key in daemon.down_interfaces
            daemon.handle_revocation(token, now=now)
            daemon_marked = (
                not was_down and token.key in daemon.down_interfaces
            )
        rejected_after = (
            registry.stats.revocations_rejected
            + (daemon.stats.revocations_rejected if daemon is not None else 0)
        )
        return self._record(
            now, "forge-revocation", token.key,
            succeeded=(quarantined > 0 or accepted or daemon_marked),
            detected=rejected_after > rejected_before,
            detail=(
                "rogue-signed revocation" if sign_with_rogue_key
                else "unsigned revocation"
            ),
        )

    def replay_revocation(
        self,
        ia: IA,
        ifid: int,
        now: float,
        path_server=None,
        daemon=None,
        staleness_s: float = 3 * DEFAULT_REVOCATION_TTL_S,
    ) -> AttackOutcome:
        """Replay a *genuine* captured revocation long past its TTL.

        The signature verifies — the token really was issued by ``ia`` —
        but the network has healed since.  Accepting it re-suppresses a
        healthy link with dead evidence.
        """
        token = Revocation(
            ia=ia, ifid=ifid, issued_at=now - staleness_s,
            reason="interface-down",
        ).signed_by(self.network.signing_keys[ia])
        self.replayed_revocations.append(token)
        server = (
            path_server
            if path_server is not None
            else self.network.services[ia].path_server
        )
        registry = server.registry
        replayed_before = registry.stats.revocations_replayed
        quarantined = server.revoke(token, now=now)
        accepted = token in registry.active_revocations()
        daemon_marked = False
        if daemon is not None:
            was_down = token.key in daemon.down_interfaces
            daemon.handle_revocation(token, now=now)
            daemon_marked = (
                not was_down and token.key in daemon.down_interfaces
            )
        return self._record(
            now, "replay-revocation", token.key,
            succeeded=(quarantined > 0 or accepted or daemon_marked),
            detected=registry.stats.revocations_replayed > replayed_before,
            detail=f"genuine token expired {staleness_s - token.ttl_s:.0f}s ago",
        )

    # -- dataplane attacks ------------------------------------------------------------

    def tamper_packet(
        self, src: IA, dst: IA, now: float, mode: str = "mac",
    ) -> AttackOutcome:
        """Walk a packet over an on-path-tampered hop field.

        ``mode="mac"`` is a blind adversary flipping MAC bits (fails MAC
        verification); ``mode="inflate"`` is a *compromised AS* re-minting
        its own hop with a real forwarding key but an inflated expiry —
        the MAC verifies, and only the hop-lifetime bound catches it.
        """
        if mode not in ("mac", "inflate"):
            raise AdversaryError(f"unknown tamper mode {mode!r}")
        metas = self.network.paths(src, dst)
        if not metas:
            return self._record(
                now, "tamper-packet", f"{src}->{dst}",
                succeeded=False, detected=False, detail="no path to tamper",
            )
        path = metas[0].path
        tampered = self._tampered_copy(path, mode)
        result = self.network.dataplane.walk(tampered, now)
        detected = (
            not result.success and result.failure in _TAMPER_DROP_REASONS
        )
        return self._record(
            now, "tamper-packet", f"{src}->{dst}",
            succeeded=result.success, detected=detected,
            detail=(
                f"mode={mode} "
                + (
                    "delivered end-to-end"
                    if result.success
                    else f"dropped: {result.failure} at {result.failed_at}"
                )
            ),
        )

    def _tampered_copy(self, path: DataplanePath, mode: str) -> DataplanePath:
        """A copy of ``path`` with its first segment's first hop tampered."""
        first = path.segments[0]
        hop = first.hops[0]
        if mode == "mac":
            flipped = hop.mac[:-1] + bytes([hop.mac[-1] ^ 0xFF])
            tampered_hop = replace(hop, mac=flipped)
        else:
            # Compromised AS: real forwarding key, inflated lifetime.  The
            # MAC binds the expiry, so it must be re-minted, which the key
            # owner can do — strictly past the lifetime bound.
            tampered_hop = HopField.create(
                hop.ia,
                self.network.forwarding_keys[hop.ia],
                first.info.timestamp,
                hop.cons_ingress,
                hop.cons_egress,
                hop.beta,
                expiry=first.info.timestamp + MAX_HOP_LIFETIME_S + 3600,
            )
        new_first = PathSegmentHops(
            info=first.info, hops=(tampered_hop,) + first.hops[1:]
        )
        return DataplanePath(segments=(new_first,) + path.segments[1:])

    # -- edge attacks: LightningFilter and path-server flooding ------------------------

    def wrong_epoch_stamp(
        self,
        lightning_filter,
        src_ia: str,
        now: float,
        payload: bytes = b"adversarial-transfer",
    ) -> AttackOutcome:
        """Stamp a packet with a DRKey from the wrong epoch.

        Models key-rollover confusion attacks: the tag is a *real* MAC
        under a *real* derived key — just not the key of the current
        epoch.  Hardened filters reject it like any bad tag.
        """
        epoch_s = lightning_filter.epoch_s
        stale_t = now - epoch_s
        if stale_t < 0:
            stale_t = now + epoch_s  # future epoch: equally wrong
        tag = lightning_filter.compute_auth_tag(src_ia, payload, stale_t)
        rejected_before = lightning_filter.stats.rejected_auth
        forwarded = lightning_filter.process(src_ia, payload, tag, now)
        return self._record(
            now, "wrong-epoch-stamp",
            f"{src_ia}->{lightning_filter.local_ia}",
            succeeded=forwarded,
            detected=lightning_filter.stats.rejected_auth > rejected_before,
            detail=f"tag from epoch at t={stale_t:.0f}",
        )

    def flood_filter(
        self,
        lightning_filter,
        now: float,
        src_ia: str = "66-6:0:bad",
        packets: int = 500,
    ) -> AttackOutcome:
        """Spoofed-source packet flood against the Science-DMZ filter.

        The attacker holds no DRKey, so every tag is garbage; success is
        any spoofed packet reaching the DMZ.
        """
        bad_tag = b"\x00" * 16
        accepted_before = lightning_filter.stats.accepted
        rejected_before = (
            lightning_filter.stats.rejected_auth
            + lightning_filter.stats.rejected_rate
        )
        for index in range(packets):
            lightning_filter.process(
                src_ia, b"flood-%d" % index, bad_tag, now + index * 1e-5,
            )
        admitted = lightning_filter.stats.accepted - accepted_before
        rejected = (
            lightning_filter.stats.rejected_auth
            + lightning_filter.stats.rejected_rate
            - rejected_before
        )
        return self._record(
            now, "flood-filter", f"{src_ia}->{lightning_filter.local_ia}",
            succeeded=admitted > 0, detected=rejected > 0,
            detail=f"{admitted}/{packets} spoofed packets admitted",
        )

    def flood_guard(
        self,
        guard,
        now: float,
        target: str = "path-server",
        requests: int = 300,
        duration_s: float = 0.5,
        priority: int = 2,
    ) -> AttackOutcome:
        """Request flood against an admission-controlled service.

        ``guard`` is the service's :class:`~repro.core.overload.OverloadGuard`.
        Success means the flood was absorbed without shedding — the
        attacker monopolises capacity and honest traffic pays.
        """
        shed_before = sum(guard.shed_by_priority.values())
        admitted = 0
        for index in range(requests):
            at = now + duration_s * index / requests
            if guard.offer(at, priority=priority).admitted:
                admitted += 1
        shed = sum(guard.shed_by_priority.values()) - shed_before
        return self._record(
            now, "flood-guard", target,
            succeeded=shed == 0 and admitted == requests,
            detected=shed > 0,
            detail=f"{admitted}/{requests} admitted, {shed} shed",
        )
