"""SCION-IP Gateway (SIG): transparent IP-to-SCION-to-IP translation.

The paper's opening observation: "All the productive use cases make use of
IP-to-SCION-to-IP translation by SCION-IP-Gateways (SIG), such that
applications are unaware of the NGN communication." The Edge deployment
model (Appendix B) packages a border router plus a SIG so a participating
network becomes a logical extension of its provider without running any
SCION-aware application.

A SIG announces a set of legacy IP prefixes; packets destined to a remote
SIG's prefixes are encapsulated into SCION packets, carried over
policy-selected paths (with instant multipath failover), and decapsulated
at the far end — the legacy hosts never learn SCION exists.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.endhost.policy import LowestLatencyPolicy, PathPolicy
from repro.errors import ReproError
from repro.scion.addr import HostAddr, IA
from repro.scion.network import ScionNetwork
from repro.scion.path import PathMeta


class SigError(ReproError):
    """Raised for unroutable prefixes or misconfigured gateways."""


@dataclass(frozen=True)
class LegacyIpPacket:
    """A legacy IP packet as seen by the gateway (payload abstracted)."""

    src_ip: str
    dst_ip: str
    payload: bytes
    protocol: str = "udp"


@dataclass(frozen=True)
class SigDelivery:
    """Outcome of carrying one legacy packet across SCION."""

    success: bool
    latency_s: float = 0.0
    via: Optional[PathMeta] = None
    egress_sig: str = ""
    failure: str = ""
    paths_tried: int = 0

    def __bool__(self) -> bool:
        return self.success


@dataclass
class SigStats:
    encapsulated: int = 0
    decapsulated: int = 0
    no_route: int = 0
    delivery_failures: int = 0
    failovers: int = 0


class ScionIpGateway:
    """One SIG instance, announcing legacy prefixes for its AS."""

    def __init__(
        self,
        network: ScionNetwork,
        ia: IA,
        prefixes: List[str],
        name: str = "",
        policy: Optional[PathPolicy] = None,
    ):
        if ia not in network.topology.ases:
            raise SigError(f"SIG placed in unknown AS {ia}")
        self.network = network
        self.ia = ia
        self.name = name or f"sig-{ia}"
        self.policy = policy or LowestLatencyPolicy()
        self.prefixes = [ipaddress.ip_network(p) for p in prefixes]
        if not self.prefixes:
            raise SigError("a SIG must announce at least one prefix")
        self.stats = SigStats()
        self._fabric: Optional["SigFabric"] = None

    def announces(self, ip: str) -> bool:
        address = ipaddress.ip_address(ip)
        return any(address in prefix for prefix in self.prefixes)

    # -- data path ------------------------------------------------------------------

    def forward(self, packet: LegacyIpPacket, now: float = 0.0) -> SigDelivery:
        """Carry a legacy IP packet to whichever SIG announces its
        destination, with multipath failover."""
        if self._fabric is None:
            raise SigError(f"{self.name} is not attached to a SIG fabric")
        remote = self._fabric.lookup(packet.dst_ip)
        if remote is None:
            self.stats.no_route += 1
            return SigDelivery(False, failure="no-sig-announces-destination")
        if remote is self:
            # Local delivery: never leaves the AS.
            return SigDelivery(True, latency_s=0.0005, egress_sig=self.name)
        self.stats.encapsulated += 1
        candidates = self.policy.order(
            self.network.paths(self.ia, remote.ia)
        )
        for attempt, meta in enumerate(candidates, start=1):
            probe = self.network.dataplane.probe(
                meta.path, now or self.network.timestamp
            )
            if not probe.success:
                continue
            if attempt > 1:
                self.stats.failovers += 1
            remote.stats.decapsulated += 1
            return SigDelivery(
                True,
                latency_s=probe.one_way_s + 0.001,  # encap/decap overhead
                via=meta,
                egress_sig=remote.name,
                paths_tried=attempt,
            )
        self.stats.delivery_failures += 1
        return SigDelivery(
            False, failure="all-paths-down", paths_tried=len(candidates),
        )


class SigFabric:
    """The set of SIGs that know each other's prefix announcements."""

    def __init__(self) -> None:
        self._gateways: List[ScionIpGateway] = []

    def attach(self, gateway: ScionIpGateway) -> None:
        for existing in self._gateways:
            for mine in gateway.prefixes:
                for theirs in existing.prefixes:
                    if mine.overlaps(theirs):
                        raise SigError(
                            f"prefix {mine} of {gateway.name} overlaps "
                            f"{theirs} of {existing.name}"
                        )
        self._gateways.append(gateway)
        gateway._fabric = self

    def lookup(self, ip: str) -> Optional[ScionIpGateway]:
        """Longest-prefix match across all announcements."""
        address = ipaddress.ip_address(ip)
        best: Optional[Tuple[int, ScionIpGateway]] = None
        for gateway in self._gateways:
            for prefix in gateway.prefixes:
                if address in prefix:
                    if best is None or prefix.prefixlen > best[0]:
                        best = (prefix.prefixlen, gateway)
        return best[1] if best else None

    @property
    def gateways(self) -> List[ScionIpGateway]:
        return list(self._gateways)
