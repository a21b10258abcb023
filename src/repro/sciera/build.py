"""Build the complete SCIERA world: SCION network, IP baseline, end hosts.

``build_sciera()`` is the main entry point of this repository: it stands up
the full Figure-1 deployment — converged control plane, live data plane,
the commercial-Internet baseline, a bootstrap server and an end host per
participant — ready for measurement campaigns and applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.endhost.bootstrap.bootstrapper import Bootstrapper
from repro.endhost.bootstrap.hinting import NetworkEnvironment
from repro.endhost.bootstrap.server import BootstrapServer
from repro.endhost.daemon import Daemon
from repro.endhost.pan import HostRegistry, PanContext, ScionHost
from repro.netsim.ip import IpInternet
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork
from repro.sciera.topology_data import (
    SCIERA_PARTICIPANTS,
    build_ip_internet,
    build_sciera_topology,
)


@dataclass
class ScieraWorld:
    """Everything the experiments operate on."""

    network: ScionNetwork
    ip_internet: IpInternet
    registry: HostRegistry
    hosts: Dict[str, ScionHost]                    # IA string -> host
    bootstrap_servers: Dict[str, BootstrapServer]  # IA string -> server
    environments: Dict[str, NetworkEnvironment]

    def host(self, ia_text: str) -> ScionHost:
        try:
            return self.hosts[ia_text]
        except KeyError:
            raise KeyError(f"no host in AS {ia_text!r}") from None

    def pan(self, ia_text: str) -> PanContext:
        return PanContext(self.host(ia_text))

    def bootstrapper_for(
        self, ia_text: str, os_name: str = "Linux", rng=None,
    ) -> Bootstrapper:
        """A fresh bootstrapper for a device joining this AS's network."""
        server = self.bootstrap_servers[ia_text]
        return Bootstrapper(
            self.environments[ia_text],
            {(server.ip, server.port): server},
            os_name=os_name,
            rng=rng,
        )


def build_sciera(
    seed: int = 0,
    with_hosts: bool = True,
) -> ScieraWorld:
    """Stand up the deployment.

    Beaconing propagates eight beacons per origin (``k_propagate=8``) and
    registers :attr:`ScionNetwork.K_REGISTER` segments per origin.
    Convergence verifies every beacon's signature chain like any
    :class:`ScionNetwork` does; ``with_hosts=False`` skips the end hosts,
    bootstrap servers and access environments.
    """
    topology = build_sciera_topology()
    network = ScionNetwork(topology, seed=seed, k_propagate=8)
    ip_internet = build_ip_internet()
    registry = HostRegistry()
    hosts: Dict[str, ScionHost] = {}
    servers: Dict[str, BootstrapServer] = {}
    environments: Dict[str, NetworkEnvironment] = {}

    if with_hosts:
        for p in SCIERA_PARTICIPANTS:
            if p.planned:
                continue
            ia = IA.parse(p.ia)
            service = network.services[ia]
            server = BootstrapServer(
                topology=service.topology,
                signing_key=service.signing_key,
                certificate=service.certificate,
                trcs=[network.trc_for(ia.isd)],
            )
            env = NetworkEnvironment(
                has_dhcp=True,
                has_dns_search_domain=True,
                has_ipv6_ras=True,
                has_mdns_responder=True,
            )
            env.advertise_everywhere(server.ip, server.port)
            host = ScionHost(
                network, ia, f"10.{ia.isd % 255}.{ia.asn % 255}.100",
                registry, daemon=Daemon(network, ia),
            )
            hosts[p.ia] = host
            servers[p.ia] = server
            environments[p.ia] = env

    return ScieraWorld(
        network=network,
        ip_internet=ip_internet,
        registry=registry,
        hosts=hosts,
        bootstrap_servers=servers,
        environments=environments,
    )
