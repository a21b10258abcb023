"""Tests for the daemon, PAN context modes, and sockets."""

import random

import pytest

from repro.endhost.bootstrap import BootstrapServer, Bootstrapper, NetworkEnvironment
from repro.endhost.daemon import Daemon
from repro.endhost.pan import (
    AppLibraryMode,
    HostRegistry,
    PanContext,
    PanError,
    ScionHost,
)
from repro.endhost.policy import GeofencePolicy, LowestLatencyPolicy
from repro.scion.addr import HostAddr, IA
from repro.scion.scmp import interface_down

A = IA.parse("71-100")
B = IA.parse("71-200")


@pytest.fixture()
def world(fresh_diamond_network):
    """Two hosts, one per leaf AS; host A has a daemon, host B does not."""
    net = fresh_diamond_network
    registry = HostRegistry()
    daemon_a = Daemon(net, A)
    host_a = ScionHost(net, A, "10.0.1.10", registry, daemon=daemon_a)
    host_b = ScionHost(net, B, "10.0.2.20", registry, daemon=Daemon(net, B))
    return net, registry, host_a, host_b


class TestDaemon:
    def test_lookup_caches(self, world):
        net, _, host_a, _ = world
        daemon = host_a.daemon
        first = daemon.lookup(B, now=0.0)
        again = daemon.lookup(B, now=10.0)
        assert daemon.stats.cache_hits == 1
        assert [p.fingerprint for p in first] == [p.fingerprint for p in again]

    def test_cache_expires_after_ttl(self, world):
        net, _, host_a, _ = world
        daemon = host_a.daemon
        daemon.lookup(B, now=0.0)
        daemon.lookup(B, now=daemon.cache_ttl_s + 1)
        assert daemon.stats.cache_hits == 0
        assert daemon.stats.refreshes == 1

    def test_scmp_interface_down_filters_paths(self, world):
        net, _, host_a, _ = world
        daemon = host_a.daemon
        all_paths = daemon.lookup(B, now=0.0)
        # Report the first path's first interface as down.
        victim = all_paths[0].interfaces[0]
        origin, ifid = victim.split("#")
        daemon.handle_scmp(interface_down(origin, int(ifid)))
        filtered = daemon.lookup(B, now=1.0)
        assert len(filtered) < len(all_paths)
        for meta in filtered:
            assert victim not in meta.interfaces
        daemon.clear_interface_state()
        assert len(daemon.lookup(B, now=2.0)) == len(all_paths)

    def test_trust_store_populated(self, world):
        net, _, host_a, _ = world
        assert host_a.daemon.trust_store.latest(71).isd == 71


class TestPanModes:
    def test_daemon_mode_resolved(self, world):
        _, _, host_a, _ = world
        ctx = PanContext(host_a)
        assert ctx.ensure_ready() is AppLibraryMode.DAEMON
        assert ctx.setup_latency_s == 0.0

    def test_bootstrapper_mode(self, world):
        net, registry, _, _ = world
        service = net.services[A]
        server = BootstrapServer(service.topology, service.signing_key,
                                 service.certificate, [net.trc_for(71)])
        env = NetworkEnvironment(has_dns_search_domain=True)
        env.advertise_everywhere(server.ip, server.port)
        bootstrapper = Bootstrapper(env, {(server.ip, server.port): server},
                                    rng=random.Random(1))
        pre = bootstrapper.bootstrap()
        host = ScionHost(net, A, "10.0.1.11", registry, bootstrap_result=pre)
        ctx = PanContext(host)
        assert ctx.ensure_ready() is AppLibraryMode.BOOTSTRAPPER

    def test_standalone_mode_bootstraps_in_app(self, world):
        net, registry, _, _ = world
        service = net.services[A]
        server = BootstrapServer(service.topology, service.signing_key,
                                 service.certificate, [net.trc_for(71)])
        env = NetworkEnvironment(has_dns_search_domain=True)
        env.advertise_everywhere(server.ip, server.port)
        bootstrapper = Bootstrapper(env, {(server.ip, server.port): server},
                                    rng=random.Random(2))
        host = ScionHost(net, A, "10.0.1.12", registry, bootstrapper=bootstrapper)
        ctx = PanContext(host)
        assert ctx.ensure_ready() is AppLibraryMode.STANDALONE
        assert ctx.setup_latency_s > 0  # in-app bootstrap costs time

    def test_no_stack_at_all_raises(self, world):
        net, registry, _, _ = world
        host = ScionHost(net, A, "10.0.1.13", registry)
        with pytest.raises(PanError, match="cannot use SCION"):
            PanContext(host).ensure_ready()

    def test_migration_forces_standalone_rebootstrap(self, world):
        net, registry, _, _ = world
        service = net.services[A]
        server = BootstrapServer(service.topology, service.signing_key,
                                 service.certificate, [net.trc_for(71)])
        env = NetworkEnvironment(has_dns_search_domain=True)
        env.advertise_everywhere(server.ip, server.port)
        bootstrapper = Bootstrapper(env, {(server.ip, server.port): server},
                                    rng=random.Random(3))
        host = ScionHost(net, A, "10.0.1.14", registry, bootstrapper=bootstrapper)
        ctx = PanContext(host)
        ctx.ensure_ready()
        ctx.on_network_migration()
        assert ctx.mode is None  # must bootstrap again
        assert ctx.ensure_ready() is AppLibraryMode.STANDALONE


class TestSockets:
    def test_request_response(self, world):
        net, _, host_a, host_b = world
        ctx_a, ctx_b = PanContext(host_a), PanContext(host_b)
        server_sock = ctx_b.open_socket(8080)
        server_sock.on_message(lambda payload, src, path: b"pong:" + payload)
        client = ctx_a.open_socket()
        result = client.send_to(
            HostAddr(B, host_b.ip, 8080), b"ping"
        )
        assert result.success
        assert result.reply == b"pong:ping"
        assert result.rtt_s > 0
        assert server_sock.received[0][0] == b"ping"

    def test_send_uses_policy(self, world):
        net, _, host_a, host_b = world
        ctx_a, ctx_b = PanContext(host_a), PanContext(host_b)
        ctx_b.open_socket(8080).on_message(lambda p, s, pa: b"ok")
        client = ctx_a.open_socket()
        via_c1 = GeofencePolicy(forbidden_ases=[IA.parse("71-2")])
        # Forbidding C2 kills every A->B path (B hangs off C2 only).
        result = client.send_to(HostAddr(B, host_b.ip, 8080), b"x", policy=via_c1)
        assert not result.success
        avoid_c1 = GeofencePolicy(forbidden_ases=[IA.parse("71-1")])
        result = client.send_to(HostAddr(B, host_b.ip, 8080), b"x", policy=avoid_c1)
        assert result.success
        assert IA.parse("71-1") not in result.path.as_sequence

    def test_failover_after_link_cut(self, world):
        net, _, host_a, host_b = world
        ctx_a, ctx_b = PanContext(host_a), PanContext(host_b)
        ctx_b.open_socket(8080).on_message(lambda p, s, pa: b"ok")
        client = ctx_a.open_socket()
        # Cut the direct A-C2 link: the lowest-latency path dies.
        net.set_link_state("a-c2", False)
        plain = client.send_to(HostAddr(B, host_b.ip, 8080), b"x",
                               policy=LowestLatencyPolicy())
        assert not plain.success
        failover = client.send_with_failover(HostAddr(B, host_b.ip, 8080), b"x",
                                             policy=LowestLatencyPolicy())
        assert failover.success
        assert failover.paths_tried > 1

    def test_port_unreachable(self, world):
        net, _, host_a, host_b = world
        client = PanContext(host_a).open_socket()
        result = client.send_to(HostAddr(B, host_b.ip, 9), b"x")
        assert not result.success
        assert result.failure == "port-unreachable"

    def test_unknown_host(self, world):
        net, _, host_a, _ = world
        client = PanContext(host_a).open_socket()
        result = client.send_to(HostAddr(B, "10.99.99.99", 1), b"x")
        assert not result.success
        assert result.failure == "no-such-host"

    def test_intra_as_delivery(self, world):
        net, registry, host_a, _ = world
        neighbor = ScionHost(net, A, "10.0.1.99", registry,
                             daemon=host_a.daemon)
        ctx_n = PanContext(neighbor)
        ctx_n.open_socket(7000).on_message(lambda p, s, pa: b"hi")
        client = PanContext(host_a).open_socket()
        result = client.send_to(HostAddr(A, "10.0.1.99", 7000), b"x")
        assert result.success
        assert result.reply == b"hi"
        assert result.paths_tried == 0  # no inter-AS path involved

    def test_duplicate_port_rejected(self, world):
        _, _, host_a, _ = world
        ctx = PanContext(host_a)
        ctx.open_socket(5000)
        with pytest.raises(PanError, match="already bound"):
            ctx.open_socket(5000)
