"""Bootstrapping hint discovery mechanisms (paper Appendix A).

A client joining a SCIERA AS first needs a "bootstrapping hint" — usually
just the bootstrapping server's IP address — delivered through a protocol
that already runs on the network: DHCP options, IPv6 NDP router
advertisements, or DNS records under the local search domain. This module
implements each mechanism against a declarative description of the local
network environment, and reproduces Table 2's applicability matrix
(which mechanisms work in which kind of network).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class HintMechanism(enum.Enum):
    """The hinting mechanisms of Appendix A (plus the option-72 fallback)."""

    DHCP_VIVO = "dhcp-vivo"          # DHCPv4 Vendor-Identifying Vendor Option
    DHCPV6_VSIO = "dhcpv6-vsio"      # DHCPv6 Vendor-Specific Information Option
    IPV6_NDP = "ipv6-ndp"            # RDNSS/DNSSL in router advertisements
    DNS_SRV = "dns-srv"              # _sciondiscovery._tcp SRV record
    DNS_SD = "dns-sd"                # DNS service discovery (PTR -> SRV)
    MDNS = "mdns"                    # multicast DNS in the broadcast domain
    DNS_NAPTR = "dns-naptr"          # x-sciondiscovery:TCP NAPTR record
    DHCP_OPTION72 = "dhcp-option72"  # "Default WWW server" fallback (A.1)


class NetworkScenario(enum.Enum):
    """The columns of Table 2: what the target network already deploys."""

    STATIC_IPS_ONLY = "static-ips-only"
    DYN_DHCP_LEASES = "dyn-dhcp-leases"
    DYN_DHCPV6_LEASE = "dyn-dhcpv6-lease"
    IPV6_RAS = "ipv6-ras"
    LOCAL_DNS_SEARCH_DOMAIN = "local-dns-search-domain"


#: Table 2 of the paper, cell by cell. "Y" = available, "M" = available in
#: combination with other mechanisms, "N" = not applicable. The IPv6 NDP /
#: static-IPs cell is "N (Y if IPv6)" — encoded as "N*".
_TABLE2: Dict[HintMechanism, Dict[NetworkScenario, str]] = {
    HintMechanism.DHCP_VIVO: {
        NetworkScenario.STATIC_IPS_ONLY: "N",
        NetworkScenario.DYN_DHCP_LEASES: "Y",
        NetworkScenario.DYN_DHCPV6_LEASE: "N",
        NetworkScenario.IPV6_RAS: "N",
        NetworkScenario.LOCAL_DNS_SEARCH_DOMAIN: "N",
    },
    HintMechanism.DHCPV6_VSIO: {
        NetworkScenario.STATIC_IPS_ONLY: "N",
        NetworkScenario.DYN_DHCP_LEASES: "N",
        NetworkScenario.DYN_DHCPV6_LEASE: "Y",
        NetworkScenario.IPV6_RAS: "N",
        NetworkScenario.LOCAL_DNS_SEARCH_DOMAIN: "N",
    },
    HintMechanism.IPV6_NDP: {
        NetworkScenario.STATIC_IPS_ONLY: "N*",
        NetworkScenario.DYN_DHCP_LEASES: "N",
        NetworkScenario.DYN_DHCPV6_LEASE: "M",
        NetworkScenario.IPV6_RAS: "Y",
        NetworkScenario.LOCAL_DNS_SEARCH_DOMAIN: "Y",
    },
    HintMechanism.DNS_SRV: {
        NetworkScenario.STATIC_IPS_ONLY: "N",
        NetworkScenario.DYN_DHCP_LEASES: "M",
        NetworkScenario.DYN_DHCPV6_LEASE: "M",
        NetworkScenario.IPV6_RAS: "Y",
        NetworkScenario.LOCAL_DNS_SEARCH_DOMAIN: "Y",
    },
    HintMechanism.DNS_SD: {
        NetworkScenario.STATIC_IPS_ONLY: "N",
        NetworkScenario.DYN_DHCP_LEASES: "M",
        NetworkScenario.DYN_DHCPV6_LEASE: "M",
        NetworkScenario.IPV6_RAS: "Y",
        NetworkScenario.LOCAL_DNS_SEARCH_DOMAIN: "Y",
    },
    HintMechanism.MDNS: {
        NetworkScenario.STATIC_IPS_ONLY: "Y",
        NetworkScenario.DYN_DHCP_LEASES: "M",
        NetworkScenario.DYN_DHCPV6_LEASE: "M",
        NetworkScenario.IPV6_RAS: "Y",
        NetworkScenario.LOCAL_DNS_SEARCH_DOMAIN: "Y",
    },
    HintMechanism.DNS_NAPTR: {
        NetworkScenario.STATIC_IPS_ONLY: "N",
        NetworkScenario.DYN_DHCP_LEASES: "M",
        NetworkScenario.DYN_DHCPV6_LEASE: "M",
        NetworkScenario.IPV6_RAS: "Y",
        NetworkScenario.LOCAL_DNS_SEARCH_DOMAIN: "Y",
    },
}

#: Rows of Table 2 in presentation order (DHCP_OPTION72 is an extra
#: fallback described in the prose of A.1, not part of the table).
TABLE2_MECHANISMS: Tuple[HintMechanism, ...] = tuple(_TABLE2)


def availability(mechanism: HintMechanism, scenario: NetworkScenario) -> str:
    """Table 2 cell for a (mechanism, scenario) pair: 'Y', 'M', 'N' or 'N*'."""
    try:
        return _TABLE2[mechanism][scenario]
    except KeyError:
        raise KeyError(
            f"no Table 2 entry for {mechanism.value!r} x {scenario.value!r}"
        ) from None


def availability_matrix() -> Dict[str, Dict[str, str]]:
    """The full Table 2 as nested dicts keyed by enum values."""
    return {
        mech.value: {scen.value: cell for scen, cell in row.items()}
        for mech, row in _TABLE2.items()
    }


@dataclass(frozen=True)
class Hint:
    """A discovered bootstrapping hint."""

    server_ip: str
    server_port: int
    mechanism: HintMechanism


@dataclass
class NetworkEnvironment:
    """What hint channels the local AS network actually provides.

    Built by the AS operator (or the SCION Orchestrator); clients probe it
    through :class:`repro.endhost.bootstrap.bootstrapper.Bootstrapper`.
    """

    #: infrastructure presence
    has_dhcp: bool = False
    has_dhcpv6: bool = False
    has_ipv6_ras: bool = False
    has_dns_search_domain: bool = False
    has_mdns_responder: bool = False
    client_has_ipv6: bool = True

    #: which channels actually carry the SCION hint
    dhcp_vivo_hint: Optional[Tuple[str, int]] = None
    dhcp_option72_hint: Optional[Tuple[str, int]] = None
    dhcpv6_vsio_hint: Optional[Tuple[str, int]] = None
    ndp_dns_hint: Optional[Tuple[str, int]] = None   # via RA-advertised DNS
    dns_srv_hint: Optional[Tuple[str, int]] = None
    dns_sd_hint: Optional[Tuple[str, int]] = None
    dns_naptr_hint: Optional[Tuple[str, int]] = None
    mdns_hint: Optional[Tuple[str, int]] = None

    def query(self, mechanism: HintMechanism) -> Optional[Hint]:
        """Attempt one mechanism against this environment.

        Returns the hint, or None when the mechanism is unavailable here or
        the channel carries no SCION hint.
        """
        probes = {
            HintMechanism.DHCP_VIVO: (self.has_dhcp, self.dhcp_vivo_hint),
            HintMechanism.DHCP_OPTION72: (self.has_dhcp, self.dhcp_option72_hint),
            HintMechanism.DHCPV6_VSIO: (self.has_dhcpv6, self.dhcpv6_vsio_hint),
            HintMechanism.IPV6_NDP: (
                self.has_ipv6_ras and self.client_has_ipv6, self.ndp_dns_hint,
            ),
            HintMechanism.DNS_SRV: (self.has_dns_search_domain, self.dns_srv_hint),
            HintMechanism.DNS_SD: (self.has_dns_search_domain, self.dns_sd_hint),
            HintMechanism.DNS_NAPTR: (
                self.has_dns_search_domain, self.dns_naptr_hint,
            ),
            HintMechanism.MDNS: (self.has_mdns_responder, self.mdns_hint),
        }
        usable, hint = probes[mechanism]
        if not usable or hint is None:
            return None
        ip, port = hint
        return Hint(server_ip=ip, server_port=port, mechanism=mechanism)

    def advertise_everywhere(self, ip: str, port: int = 8041) -> None:
        """Convenience for operators: publish the hint on every channel the
        network has (what the SCION Orchestrator configures by default)."""
        hint = (ip, port)
        if self.has_dhcp:
            self.dhcp_vivo_hint = hint
            self.dhcp_option72_hint = hint
        if self.has_dhcpv6:
            self.dhcpv6_vsio_hint = hint
        if self.has_ipv6_ras:
            self.ndp_dns_hint = hint
        if self.has_dns_search_domain:
            self.dns_srv_hint = hint
            self.dns_sd_hint = hint
            self.dns_naptr_hint = hint
        if self.has_mdns_responder:
            self.mdns_hint = hint
