"""Tests for hint discovery, the bootstrap server, and the bootstrapper."""

import dataclasses
import random

import pytest

from repro.endhost.bootstrap import (
    BootstrapError,
    Bootstrapper,
    BootstrapServer,
    Hint,
    HintMechanism,
    NetworkEnvironment,
    NetworkScenario,
    availability,
    availability_matrix,
)
from repro.endhost.bootstrap.hinting import TABLE2_MECHANISMS
from repro.scion.addr import IA

A = IA.parse("71-100")


class TestTable2:
    """The availability matrix must reproduce Table 2 of the paper."""

    def test_row_count_matches_paper(self):
        assert len(TABLE2_MECHANISMS) == 7

    @pytest.mark.parametrize(
        "mechanism,scenario,expected",
        [
            (HintMechanism.DHCP_VIVO, NetworkScenario.DYN_DHCP_LEASES, "Y"),
            (HintMechanism.DHCP_VIVO, NetworkScenario.STATIC_IPS_ONLY, "N"),
            (HintMechanism.DHCPV6_VSIO, NetworkScenario.DYN_DHCPV6_LEASE, "Y"),
            (HintMechanism.DHCPV6_VSIO, NetworkScenario.DYN_DHCP_LEASES, "N"),
            (HintMechanism.IPV6_NDP, NetworkScenario.STATIC_IPS_ONLY, "N*"),
            (HintMechanism.IPV6_NDP, NetworkScenario.IPV6_RAS, "Y"),
            (HintMechanism.IPV6_NDP, NetworkScenario.DYN_DHCPV6_LEASE, "M"),
            (HintMechanism.DNS_SRV, NetworkScenario.DYN_DHCP_LEASES, "M"),
            (HintMechanism.DNS_SRV, NetworkScenario.LOCAL_DNS_SEARCH_DOMAIN, "Y"),
            (HintMechanism.MDNS, NetworkScenario.STATIC_IPS_ONLY, "Y"),
            (HintMechanism.DNS_NAPTR, NetworkScenario.IPV6_RAS, "Y"),
        ],
    )
    def test_cells(self, mechanism, scenario, expected):
        assert availability(mechanism, scenario) == expected

    def test_mdns_is_the_only_static_ip_mechanism(self):
        static_capable = [
            m for m in TABLE2_MECHANISMS
            if availability(m, NetworkScenario.STATIC_IPS_ONLY) == "Y"
        ]
        assert static_capable == [HintMechanism.MDNS]

    def test_matrix_is_complete(self):
        matrix = availability_matrix()
        assert len(matrix) == 7
        for row in matrix.values():
            assert set(row) == {s.value for s in NetworkScenario}
            assert set(row.values()) <= {"Y", "M", "N", "N*"}


class TestEnvironmentQueries:
    def test_query_returns_hint_when_channel_configured(self):
        env = NetworkEnvironment(has_dhcp=True)
        env.dhcp_vivo_hint = ("10.0.0.9", 8041)
        hint = env.query(HintMechanism.DHCP_VIVO)
        assert hint == Hint("10.0.0.9", 8041, HintMechanism.DHCP_VIVO)

    def test_query_requires_infrastructure(self):
        env = NetworkEnvironment(has_dhcp=False)
        env.dhcp_vivo_hint = ("10.0.0.9", 8041)
        assert env.query(HintMechanism.DHCP_VIVO) is None

    def test_ndp_requires_client_ipv6(self):
        env = NetworkEnvironment(has_ipv6_ras=True, client_has_ipv6=False)
        env.ndp_dns_hint = ("10.0.0.9", 8041)
        assert env.query(HintMechanism.IPV6_NDP) is None
        env.client_has_ipv6 = True
        assert env.query(HintMechanism.IPV6_NDP) is not None

    def test_advertise_everywhere_populates_available_channels(self):
        env = NetworkEnvironment(
            has_dhcp=True, has_dns_search_domain=True, has_mdns_responder=True
        )
        env.advertise_everywhere("10.0.0.9")
        found = [m for m in HintMechanism if env.query(m) is not None]
        assert HintMechanism.DHCP_VIVO in found
        assert HintMechanism.DNS_SRV in found
        assert HintMechanism.MDNS in found
        assert HintMechanism.DHCPV6_VSIO not in found


@pytest.fixture()
def bootstrap_setup(diamond_network):
    """A bootstrap server for AS A plus a matching environment."""
    net = diamond_network
    service = net.services[A]
    server = BootstrapServer(
        topology=service.topology,
        signing_key=service.signing_key,
        certificate=service.certificate,
        trcs=[net.trc_for(71)],
    )
    env = NetworkEnvironment(has_dhcp=True, has_dns_search_domain=True)
    env.advertise_everywhere(server.ip)
    servers = {(server.ip, server.port): server}
    return net, server, env, servers


class TestBootstrapper:
    def test_full_pipeline(self, bootstrap_setup):
        net, server, env, servers = bootstrap_setup
        bootstrapper = Bootstrapper(env, servers, os_name="Linux",
                                    rng=random.Random(1))
        result = bootstrapper.bootstrap()
        assert result.topology.ia == A
        assert result.topology.border_router_addresses
        assert result.trcs[0].isd == 71
        assert result.mechanism is HintMechanism.DNS_SRV  # first preference
        assert result.hint_latency_s > 0
        assert result.config_latency_s > 0
        assert result.total_latency_s < 0.5

    def test_fallback_when_dns_absent(self, bootstrap_setup):
        net, server, env, servers = bootstrap_setup
        env.has_dns_search_domain = False
        bootstrapper = Bootstrapper(env, servers, rng=random.Random(2))
        result = bootstrapper.bootstrap()
        assert result.mechanism is HintMechanism.DHCP_VIVO
        assert result.mechanisms_tried > 1

    def test_no_mechanism_raises(self, bootstrap_setup):
        net, server, _, servers = bootstrap_setup
        empty_env = NetworkEnvironment()
        bootstrapper = Bootstrapper(empty_env, servers, rng=random.Random(3))
        with pytest.raises(BootstrapError, match="no bootstrapping hint"):
            bootstrapper.bootstrap()

    def test_dangling_hint_raises(self, bootstrap_setup):
        net, server, env, _ = bootstrap_setup
        bootstrapper = Bootstrapper(env, servers={}, rng=random.Random(4))
        with pytest.raises(BootstrapError, match="no bootstrap server"):
            bootstrapper.bootstrap()

    def test_unknown_os_rejected(self, bootstrap_setup):
        net, server, env, servers = bootstrap_setup
        with pytest.raises(BootstrapError, match="unknown OS"):
            Bootstrapper(env, servers, os_name="TempleOS")

    def test_tampered_topology_rejected(self, bootstrap_setup):
        net, server, env, servers = bootstrap_setup
        # Tamper with the served document after signing.
        original = server._document
        server._document = dataclasses.replace(
            original, control_service_address="10.66.66.66"
        )
        bootstrapper = Bootstrapper(env, servers, rng=random.Random(5))
        with pytest.raises(BootstrapError, match="signature invalid"):
            bootstrapper.bootstrap()
        server._document = original

    def test_topology_signed_by_other_as_rejected(self, bootstrap_setup, diamond_network):
        net, server, env, servers = bootstrap_setup
        other = net.services[IA.parse("71-200")]
        rogue = BootstrapServer(
            topology=net.services[A].topology,
            signing_key=other.signing_key,       # wrong key
            certificate=other.certificate,       # wrong chain
            trcs=[net.trc_for(71)],
        )
        servers = {(rogue.ip, rogue.port): rogue}
        env2 = NetworkEnvironment(has_dns_search_domain=True)
        env2.advertise_everywhere(rogue.ip)
        bootstrapper = Bootstrapper(env2, servers, rng=random.Random(6))
        with pytest.raises(BootstrapError, match="different AS"):
            bootstrapper.bootstrap()

    def test_pinned_trc_mismatch_rejected(self, bootstrap_setup):
        net, server, env, servers = bootstrap_setup
        import dataclasses as dc
        foreign = dc.replace(net.trc_for(71), description="evil twin")
        bootstrapper = Bootstrapper(
            env, servers, rng=random.Random(7), pinned_trcs=[foreign]
        )
        with pytest.raises(BootstrapError, match="TRC"):
            bootstrapper.bootstrap()

    def test_pinned_trc_match_accepted(self, bootstrap_setup):
        net, server, env, servers = bootstrap_setup
        bootstrapper = Bootstrapper(
            env, servers, rng=random.Random(8), pinned_trcs=[net.trc_for(71)]
        )
        assert bootstrapper.bootstrap().topology.ia == A

    def test_all_oses_bootstrap_quickly(self, bootstrap_setup):
        """Figure 4's claim: medians well under 150 ms on every OS."""
        net, server, env, servers = bootstrap_setup
        import statistics
        for os_name in ("Windows", "Linux", "Mac"):
            totals = []
            for run in range(30):
                bootstrapper = Bootstrapper(
                    env, servers, os_name=os_name, rng=random.Random(run)
                )
                totals.append(bootstrapper.bootstrap().total_latency_s)
            assert statistics.median(totals) < 0.150, os_name
