"""ScionNetwork: a fully operational SCION network over a topology.

This is the orchestration layer that turns a :class:`GlobalTopology` into a
working network, performing what a real deployment does piece by piece:

1. per ISD: generate root and CA keys, self-sign the root, issue the CA
   certificate, assemble and self-sign the base TRC;
2. per AS: generate a signing key pair, obtain an AS certificate from the
   ISD's CA, derive the secret forwarding key, start a control service;
3. run core and intra-ISD beaconing to a fixed point (with full signature
   verification);
4. register the resulting up/down/core segments with the path servers;
5. stand up the data plane (border routers wired to the links).

Afterwards, :meth:`paths` answers end-host path lookups (combining
segments), and :meth:`active_paths` applies the paper's definition of an
*active* path: known to the control plane AND usable on the data plane.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs import Telemetry, resolve
from repro.scion.addr import IA
from repro.scion.control.beaconing import BeaconingEngine
from repro.scion.control.combinator import CoreHalf, combine_paths
from repro.scion.control.path_server import LocalPathServer, SegmentRegistry
from repro.scion.control.segments import Beacon
from repro.scion.control.service import ControlService, TrustStore
from repro.scion.crypto.ca import CaService
from repro.scion.crypto.cppki import (
    Certificate,
    CertType,
    make_self_signed_root,
)
from repro.scion.crypto.keys import derive_forwarding_key
from repro.scion.crypto.rsa import RsaKeyPair
from repro.scion.crypto.trc import Trc
from repro.scion.dataplane.network import ProbeResult, ScionDataplane
from repro.scion.dataplane.router import BorderRouter
from repro.scion.path import DataplanePath, PathMeta
from repro.scion.revocation import DEFAULT_REVOCATION_TTL_S, Revocation
from repro.scion.topology import GlobalTopology, LinkType, TopologyError


@dataclass
class IsdTrust:
    """Trust material of one ISD: root, CA, and base TRC."""

    isd: int
    root_key: RsaKeyPair
    root_cert: Certificate
    ca_key: RsaKeyPair
    ca: CaService
    trc: Trc


class ScionNetwork:
    """A running SCION network: control plane converged, data plane live."""

    #: How long trust material lives in the simulation (10 years).
    TRUST_LIFETIME_S = 10 * 365 * 24 * 3600.0
    #: Segments each AS registers per origin after a beaconing run.
    K_REGISTER = 16

    def __init__(
        self,
        topology: GlobalTopology,
        seed: int = 0,
        k_propagate: int = 6,
        telemetry: Optional[Telemetry] = None,
    ):
        topology.validate()
        self.topology = topology
        #: Public telemetry handle — daemons, supervisors, and experiment
        #: drivers attach to the same registry/tracer/event log.
        self.telemetry = resolve(telemetry)
        self.seed = seed
        #: Build instant: trust material and the first beacons date from it.
        self.timestamp = 1_000_000
        master = hashlib.sha256(f"sciera-master-{seed}".encode()).digest()

        # 1. Per-ISD trust material.
        self.isd_trust: Dict[int, IsdTrust] = {}
        self.trust_store = TrustStore()
        self._pending_root_keys: Dict[int, RsaKeyPair] = {}
        for isd in topology.isds():
            self.isd_trust[isd] = self._build_isd_trust(isd, self.timestamp)
            self.trust_store.add_trc(self.isd_trust[isd].trc)

        # 2. Per-AS identities and services.
        self.registry = SegmentRegistry(telemetry=telemetry)
        self.services: Dict[IA, ControlService] = {}
        for index, (ia, as_topo) in enumerate(sorted(topology.ases.items())):
            signing_key = RsaKeyPair.generate(seed=self._key_seed("as", ia))
            trust = self.isd_trust[ia.isd]
            issued = trust.ca.issue_as_certificate(
                str(ia), signing_key.public, now=self.timestamp,
            )
            service = ControlService(
                topology=as_topo,
                signing_key=signing_key,
                forwarding_key=derive_forwarding_key(master, str(ia)),
                certificate=issued,
                path_server=LocalPathServer(
                    ia, self.registry, self.check_revocation,
                    telemetry=telemetry,
                ),
            )
            for trust_material in self.isd_trust.values():
                service.trust_store.add_trc(trust_material.trc)
            self.services[ia] = service

        self.forwarding_keys = {
            ia: service.forwarding_key for ia, service in self.services.items()
        }
        self.signing_keys = {
            ia: service.signing_key for ia, service in self.services.items()
        }

        # 3-4. Beaconing and registration.
        self._path_cache: Dict[Tuple[IA, IA], Tuple[PathMeta, ...]] = {}
        self._path_cache_version = self.registry.version
        #: src -> (up segments, core segments, the CoreHalf built from them)
        self._core_halves: Dict[IA, Tuple[tuple, tuple, CoreHalf]] = {}
        self.beaconing: BeaconingEngine = self.run_beaconing(k_propagate=k_propagate)

        # 5. Data plane — handed the AS signing keys so the SCMP errors it
        # emits can be turned into *signed* revocations at the source AS.
        self.dataplane = ScionDataplane(
            topology, self.forwarding_keys, signing_keys=self.signing_keys,
            telemetry=telemetry,
        )
        if self.telemetry.enabled:
            self.telemetry.metrics.register_collector(self._collect_gauges)

    def _collect_gauges(self, metrics) -> None:
        """Pull-style gauges sampled at export time (no hot-path cost)."""
        metrics.gauge(
            "scion_quarantined_segments",
            "Segments currently quarantined by active revocations.",
        ).set(self.registry.quarantined_count())
        metrics.gauge(
            "scion_active_revocations",
            "Distinct interfaces under an unexpired revocation.",
        ).set(len(self.registry.active_revocations()))
        metrics.gauge(
            "scion_links_down", "Topology links administratively down.",
        ).set(sum(1 for link in self.topology.links.values() if not link.up))
        for name in (
            "rounds", "beacons_sent", "beacons_accepted",
            "beacons_rejected_loop", "beacons_rejected_invalid",
        ):
            metrics.gauge(
                f"beaconing_{name}",
                "Beaconing engine totals for the last run.",
            ).set(float(getattr(self.beaconing.stats, name)))

    # -- construction helpers ---------------------------------------------------

    def _key_seed(self, label: str, ia: object) -> int:
        raw = hashlib.sha256(f"{self.seed}:{label}:{ia}".encode()).digest()
        return int.from_bytes(raw[:8], "big")

    def _build_isd_trust(self, isd: int, now: float) -> IsdTrust:
        root_key = RsaKeyPair.generate(seed=self._key_seed("root", isd))
        ca_key = RsaKeyPair.generate(seed=self._key_seed("ca", isd))
        not_after = now + self.TRUST_LIFETIME_S
        root_cert = make_self_signed_root(
            f"root-isd{isd}", root_key, now, not_after
        )
        ca_cert = Certificate(
            subject=f"ca-isd{isd}",
            cert_type=CertType.CA,
            public_key=ca_key.public,
            issuer=root_cert.subject,
            not_before=now,
            not_after=not_after,
            serial=1,
        ).signed_by(root_key)
        ca = CaService(f"ca-isd{isd}", ca_key, ca_cert, root_cert)
        core = [str(ia) for ia in self.topology.core_ases(isd)]
        if not core:
            # An ISD without local core ASes anchors trust in a designated
            # authoritative AS (not the case in SCIERA, but kept valid).
            core = [str(sorted(ia for ia in self.topology.ases if ia.isd == isd)[0])]
        trc = Trc(
            isd=isd,
            serial=1,
            base_serial=1,
            not_before=now,
            not_after=not_after,
            core_ases=tuple(core),
            authoritative_ases=tuple(core),
            root_keys={f"root-isd{isd}": root_key.public},
            voting_quorum=1,
            description=f"base TRC for ISD {isd}",
        ).with_votes({f"root-isd{isd}": root_key})
        trc.verify_base()
        return IsdTrust(isd, root_key, root_cert, ca_key, ca, trc)

    # -- control plane -----------------------------------------------------------

    def cert_chain(self, ia: IA) -> Tuple[Certificate, ...]:
        return self.services[ia].certificate.chain()

    def trc_for(self, isd: int) -> Trc:
        return self.isd_trust[isd].trc

    # -- trust-material lifecycle -------------------------------------------------

    def rollover_trc(
        self, isd: int, now: float, rotate_root: bool = True
    ) -> Trc:
        """Issue and distribute a successor TRC for one ISD.

        The successor is voted by the *predecessor's* root key (that is the
        chain) and, with ``rotate_root``, names a fresh root key — after
        which existing certificate chains only verify through the
        superseded TRC, i.e. only while the grace window is open.  Call
        :meth:`reissue_trust_chains` to re-anchor the ISD's certificates in
        the new root before the window closes.
        """
        trust = self.isd_trust[isd]
        old = trust.trc
        voter = f"root-isd{isd}"
        if rotate_root:
            new_key = RsaKeyPair.generate(
                seed=self._key_seed(f"root-s{old.serial + 1}", isd)
            )
        else:
            new_key = trust.root_key
        successor = Trc(
            isd=isd,
            serial=old.serial + 1,
            base_serial=old.base_serial,
            not_before=now,
            not_after=now + self.TRUST_LIFETIME_S,
            core_ases=old.core_ases,
            authoritative_ases=old.authoritative_ases,
            root_keys={voter: new_key.public},
            voting_quorum=1,
            description=f"TRC serial {old.serial + 1} for ISD {isd}",
        ).with_votes({voter: trust.root_key})
        self.trust_store.add_trc(successor, now=now)
        for service in self.services.values():
            service.trust_store.add_trc(successor, now=now)
        trust.trc = successor
        self._pending_root_keys[isd] = new_key
        return successor

    def reissue_trust_chains(self, isd: int, now: float) -> None:
        """Complete a TRC rollover: re-anchor the ISD's certificates.

        Re-signs the root and CA certificates under the rolled-over root
        key and re-issues every AS certificate in the ISD, so chains verify
        against the *latest* TRC again and survive the grace window
        closing.
        """
        trust = self.isd_trust[isd]
        new_key = self._pending_root_keys.pop(isd, trust.root_key)
        not_after = now + self.TRUST_LIFETIME_S
        root_cert = make_self_signed_root(
            f"root-isd{isd}", new_key, now, not_after,
            serial=trust.trc.serial,
        )
        ca_cert = Certificate(
            subject=f"ca-isd{isd}",
            cert_type=CertType.CA,
            public_key=trust.ca_key.public,
            issuer=root_cert.subject,
            not_before=now,
            not_after=not_after,
            serial=trust.trc.serial,
        ).signed_by(new_key)
        ca = CaService(f"ca-isd{isd}", trust.ca_key, ca_cert, root_cert)
        trust.root_key = new_key
        trust.root_cert = root_cert
        trust.ca = ca
        for ia, service in sorted(self.services.items()):
            if ia.isd != isd:
                continue
            service.renew_certificate(ca, now)

    def run_beaconing(
        self,
        k_propagate: int = 6,
        now: Optional[float] = None,
    ) -> BeaconingEngine:
        """(Re-)run beaconing to a fixed point and register the segments.

        ``now`` is the wall clock certificate chains and TRCs are validated
        against (default: the network's build timestamp).  A later ``now``
        makes beacons signed with expired certificates fail verification —
        exactly what a live network does — and keeps superseded TRCs
        verifiable inside the rollover grace window.
        """
        verify_now = self.timestamp if now is None else now
        key_resolver = Beacon.make_validating_key_resolver(
            self.cert_chain,
            lambda isd: self.trust_store.verifying_trcs(isd, verify_now),
            verify_now,
        )
        engine = BeaconingEngine(
            self.topology,
            self.forwarding_keys,
            self.signing_keys,
            key_resolver,
            # Hop fields are stamped at the wall clock of this run, so
            # re-beaconing late in the simulation yields live segments
            # instead of ones born past their own hop expiry.
            timestamp=int(verify_now),
            k_propagate=k_propagate,
            telemetry=self.telemetry,
        )
        engine.run()
        self.beaconing = engine
        # Re-beaconing starts a fresh registration epoch: segments from a
        # previous run must not outlive the stores that produced them.
        # Active revocations are NOT beacon-derived state, so they carry
        # across the epoch; registering the fresh segments then clears
        # exactly those a later-timestamped beacon disproves.
        revocations = self.registry.active_revocations(now=verify_now)
        self.registry.clear()
        for service in self.services.values():
            service.path_server.clear()
        self.flush_path_cache()
        for revocation in revocations:
            self.registry.revoke(revocation)
        self._register_segments(engine, now=verify_now)
        return engine

    def _register_segments(
        self, engine: BeaconingEngine, now: Optional[float] = None
    ) -> None:
        tel = self.telemetry
        at = float(self.timestamp if now is None else now)

        def _trace_register(segment, ia: IA, kind: str) -> None:
            root = engine.trace_span_for(segment.interface_fingerprint())
            if root is not None:
                tel.tracer.add(
                    "beacon.register", now=at, parent=root,
                    kind=kind, **{"as": str(ia)},
                )

        for ia, topo in sorted(self.topology.ases.items()):
            service = self.services[ia]
            if topo.is_core:
                stored = engine.core_stores[ia].select_all(self.K_REGISTER, now=now)
                for segment in map(engine.terminate, stored):
                    self.registry.register_core(segment, now=now)
                    if tel.enabled:
                        _trace_register(segment, ia, "core")
            else:
                stored = engine.down_stores[ia].select_all(self.K_REGISTER, now=now)
                for segment in map(engine.terminate, stored):
                    service.path_server.register_up(segment)
                    self.registry.register_down(segment, now=now)
                    if tel.enabled:
                        _trace_register(segment, ia, "down")

    # -- path lookup ---------------------------------------------------------------

    def paths(
        self,
        src: IA,
        dst: IA,
        max_paths: Optional[int] = None,
        refresh: bool = False,
        now: Optional[float] = None,
        deadline_s: Optional[float] = None,
        priority: int = 1,
    ) -> List[PathMeta]:
        """All control-plane paths from ``src`` to ``dst`` with metadata.

        ``now``/``deadline_s`` propagate the caller's deadline into the
        path server's overload admission (when its guard is installed);
        deadline-carrying lookups bypass the combination memo — admission
        must see every request, and an overloaded server may refuse this
        one (:exc:`~repro.core.overload.OverloadRejected` propagates).
        ``priority`` orders shedding at the guard; critical traffic
        (priority 0 by default) is never CoDel-shed.
        """
        # Any registry mutation (registration, revocation, quarantine
        # expiry) invalidates memoized combinations wholesale — a cached
        # path over a quarantined segment must never be handed out.
        if self._path_cache_version != self.registry.version:
            self._path_cache.clear()
            self._path_cache_version = self.registry.version
        key = (src, dst)
        metas = None
        if not refresh and deadline_s is None:
            metas = self._path_cache.get(key)
        if metas is None:
            src_topo = self.topology.get(src)
            dst_topo = self.topology.get(dst)
            ups, cores, downs, _ = self.services[src].path_server.segments_for(
                dst, now=now, deadline_s=deadline_s, priority=priority
            )
            # The path server answers every destination with the same up
            # and core segments until its state moves, so one half serves
            # them all; the comparison is a pointer scan while it holds.
            held = self._core_halves.get(src)
            if held is None or held[0] != ups or held[1] != cores:
                held = self._core_halves[src] = (ups, cores, CoreHalf(
                    src, () if src_topo.is_core else ups, cores,
                    src_is_core=src_topo.is_core,
                ))
            with self.telemetry.tracer.span(
                "combinator.combine", src=str(src), dst=str(dst)
            ) as span:
                raw = combine_paths(
                    held[2], dst,
                    down_segments=() if dst_topo.is_core else downs,
                    dst_is_core=dst_topo.is_core,
                )
                span.attrs["paths"] = str(len(raw))
            # A tuple in the memo, a fresh list out: callers may sort or
            # clear what they get without corrupting the next lookup.
            metas = self._path_cache[key] = tuple(map(self._meta, raw))
        return list(metas[:max_paths])

    def _meta(self, path: DataplanePath) -> PathMeta:
        return PathMeta(
            path=path,
            latency_estimate_s=self.dataplane.path_latency_s(path),
            carbon_gco2_per_gb=self._carbon_estimate(path),
        )

    def _carbon_estimate(self, path: DataplanePath) -> float:
        """Toy per-path carbon metric: grows with distance (links crossed).

        Exists so "green path" policies (Section 4.7) have a real signal.
        """
        raw = path.fingerprint()
        jitter = int(raw[:4], 16) / 0xFFFF
        return 10.0 * max(0, path.num_as_hops() - 1) + 5.0 * jitter

    def active_paths(
        self, src: IA, dst: IA, now: Optional[float] = None
    ) -> List[PathMeta]:
        """Paths known to the control plane AND usable on the data plane."""
        t = self.timestamp if now is None else now
        return [
            meta for meta in self.paths(src, dst)
            if self.dataplane.probe(meta.path, t).success
        ]

    def probe(self, meta: PathMeta, now: Optional[float] = None) -> ProbeResult:
        t = self.timestamp if now is None else now
        return self.dataplane.probe(meta.path, t)

    # -- enrollment (the paper's "lean start and expand as you grow") -----------------

    def enroll_as(
        self,
        ia: IA,
        parent_links: List[Tuple[IA, float]],
        name: str = "",
        region: str = "",
        flavor: str = "open-source",
    ) -> "ControlService":
        """Enroll a new leaf AS into the running network.

        This is the operation SCIERA scaled (Sections 4.3/4.4): attach the
        AS over Layer-2 links to its providers, issue its certificate
        through the ISD CA, and re-converge the control plane so every
        other participant can reach it. Returns the new control service.
        """
        if ia in self.topology.ases:
            raise TopologyError(f"AS {ia} already enrolled")
        if not parent_links:
            raise TopologyError("a new AS needs at least one parent link")
        if ia.isd not in self.isd_trust:
            raise TopologyError(
                f"no trust material for ISD {ia.isd}; new ISDs need a TRC"
            )
        as_topo = self.topology.add_as(
            ia, is_core=False, name=name or str(ia), region=region,
            flavor=flavor,
        )
        for parent, latency_s in parent_links:
            self.topology.add_link(
                ia, parent, LinkType.PARENT, latency_s,
                link_name=f"enroll:{ia}--{parent}",
            )
        self.topology.validate()

        master = hashlib.sha256(f"sciera-master-{self.seed}".encode()).digest()
        signing_key = RsaKeyPair.generate(seed=self._key_seed("as", ia))
        trust = self.isd_trust[ia.isd]
        issued = trust.ca.issue_as_certificate(
            str(ia), signing_key.public, now=self.timestamp,
        )
        service = ControlService(
            topology=as_topo,
            signing_key=signing_key,
            forwarding_key=derive_forwarding_key(master, str(ia)),
            certificate=issued,
            path_server=LocalPathServer(
                ia, self.registry, self.check_revocation,
                telemetry=self.telemetry,
            ),
        )
        for trust_material in self.isd_trust.values():
            service.trust_store.add_trc(trust_material.trc)
        self.services[ia] = service
        self.forwarding_keys[ia] = service.forwarding_key
        self.signing_keys[ia] = service.signing_key
        self.dataplane.signing_keys[ia] = service.signing_key
        self.dataplane.routers[ia] = BorderRouter(
            as_topo, service.forwarding_key, telemetry=self.telemetry
        )

        self._reset_control_plane()
        self.run_beaconing()
        return service

    def _reset_control_plane(self) -> None:
        """Drop registered segments and caches before re-beaconing."""
        self.registry = SegmentRegistry(telemetry=self.telemetry)
        self.flush_path_cache()
        self._path_cache_version = self.registry.version
        for service in self.services.values():
            service.path_server = LocalPathServer(
                service.ia, self.registry, self.check_revocation,
                telemetry=self.telemetry,
            )

    # -- operational hooks -----------------------------------------------------------

    def verify_revocation(self, revocation: Revocation) -> bool:
        """Check a revocation's signature against the revoking AS's key.

        Only the AS that owns an interface can revoke it, using the same
        signing key its beacons are verified with.
        """
        key = self.signing_keys.get(revocation.ia)
        if key is None:
            return False
        return revocation.verify(key.public)

    def check_revocation(
        self, revocation: Revocation, now: Optional[float]
    ) -> Optional[str]:
        """Why ``revocation`` is refused, or ``None`` to accept it.

        The check wired into every local path server and daemon.  Freshness
        comes first: a token past its TTL at ``now`` is ``"replayed"``,
        signed or not (with ``now=None`` there is no clock to judge it
        by).  A live token that fails :meth:`verify_revocation` is
        ``"forged"``.
        """
        if now is not None and not revocation.active(now):
            return "replayed"
        if not self.verify_revocation(revocation):
            return "forged"
        return None

    def revoke_interface(
        self, ia: IA, ifid: int, now: float,
        ttl_s: float = DEFAULT_REVOCATION_TTL_S,
    ) -> Revocation:
        """Operator-style revocation: sign, quarantine, and enforce.

        Mints a signed revocation for ``(ia, ifid)``, feeds it to the
        shared registry through ``ia``'s own path server, and marks the
        interface down at ``ia``'s border router so in-flight use of stale
        paths dies at the first hop.
        """
        if ia not in self.services:
            raise TopologyError(f"cannot revoke interface of unknown AS {ia}")
        revocation = Revocation(
            ia=ia, ifid=ifid, issued_at=now, ttl_s=ttl_s
        ).signed_by(self.signing_keys[ia])
        self.services[ia].path_server.revoke(revocation, now=now)
        self.dataplane.apply_revocation(revocation)
        return revocation

    def flush_path_cache(self) -> None:
        """Drop memoized path combinations and core halves (control-plane
        state changed)."""
        self._path_cache.clear()
        self._core_halves.clear()

    def reset_stats(self) -> None:
        """Zero every cumulative stats counter: an explicit epoch boundary.

        The convention: ``*Stats`` counters are **cumulative** — they
        survive ``run_beaconing`` epochs and component swaps, matching
        Prometheus counter semantics.  Experiments that want per-epoch
        numbers call this between epochs (or construct fresh components;
        both are equivalent).  Telemetry-backed counters are zeroed in the
        shared registry, so exported series restart from zero too.

        An attached profiler is segmented at the same boundary
        (``mark_epoch``), so per-``run_beaconing``-epoch hot-path tables
        are not polluted by attribution from earlier epochs.
        """
        self.registry.stats.reset()
        for router in self.dataplane.routers.values():
            router.stats.reset()
        profiler = self.telemetry.profiler
        if profiler is not None:
            profiler.mark_epoch()

    def set_link_state(self, link_name: str, up: bool) -> None:
        try:
            self.topology.links[link_name].set_up(up)
        except KeyError:
            raise KeyError(f"unknown link {link_name!r}") from None

    def all_as_pairs(self) -> List[Tuple[IA, IA]]:
        ases = sorted(self.topology.ases)
        return [(a, b) for a in ases for b in ases if a != b]
