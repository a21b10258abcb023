"""End-host resilience under injected faults: the ISSUE's acceptance
scenarios — bootstrap falls back past a dead server with bounded retries,
and the daemon serves stale-but-marked paths through refresh failures."""

import random

import pytest

from repro.endhost.bootstrap import (
    BootstrapServer,
    Bootstrapper,
    NetworkEnvironment,
    TransientBootstrapError,
)
from repro.endhost.daemon import Daemon
from repro.endhost.pan import AppLibraryMode, HostRegistry, PanContext, ScionHost
from repro.endhost.policy import LowestLatencyPolicy
from repro.netsim.chaos import FaultInjector, FaultProfile
from repro.resilience.retry import RetryPolicy
from repro.scion.addr import HostAddr, IA
from repro.scion.control.path_server import PathServerError

A = IA.parse("71-100")
B = IA.parse("71-200")

RETRY = RetryPolicy(max_attempts=6, base_delay_s=0.05, max_delay_s=1.0,
                    deadline_s=10.0)


def make_server(network, ip):
    service = network.services[A]
    return BootstrapServer(
        topology=service.topology,
        signing_key=service.signing_key,
        certificate=service.certificate,
        trcs=[network.trc_for(71)],
        ip=ip,
    )


def two_server_env(network, injector, outage=0.0):
    """Chaotic primary on the DNS channels, healthy secondary on DHCP."""
    primary = make_server(network, "10.0.1.1")
    secondary = make_server(network, "10.0.1.2")
    chaotic = injector.wrap_server(
        primary, FaultProfile(outage=outage), name="primary"
    )
    env = NetworkEnvironment(has_dns_search_domain=True, has_dhcp=True)
    env.dns_srv_hint = (primary.ip, primary.port)
    env.dns_sd_hint = (primary.ip, primary.port)
    env.dns_naptr_hint = (primary.ip, primary.port)
    env.dhcp_vivo_hint = (secondary.ip, secondary.port)
    servers = {
        (primary.ip, primary.port): chaotic,
        (secondary.ip, secondary.port): secondary,
    }
    return env, servers, chaotic


class TestBootstrapRetry:
    def test_fallback_to_secondary_on_hard_outage(self, diamond_network):
        """The ISSUE's headline scenario: primary down, bootstrap succeeds
        via the secondary with bounded retries and accounted wait time."""
        injector = FaultInjector(seed=1)
        env, servers, chaotic = two_server_env(diamond_network, injector)
        chaotic.set_down(True)
        client = Bootstrapper(env, servers, rng=random.Random(0),
                              retry_policy=RETRY)
        result = client.bootstrap()
        assert result.topology.ia == A
        assert result.attempts == 2
        assert result.attempts <= RETRY.max_attempts
        assert result.servers_failed == ("10.0.1.1:8041",)
        assert result.retry_wait_s > 0.0
        assert result.total_latency_s == pytest.approx(
            result.hint_latency_s + result.config_latency_s
            + result.retry_wait_s
        )

    def test_succeeds_under_probabilistic_refusals(self, diamond_network):
        injector = FaultInjector(seed=2)
        env, servers, _ = two_server_env(diamond_network, injector,
                                         outage=0.5)
        successes = 0
        for trial in range(20):
            client = Bootstrapper(env, servers,
                                  rng=random.Random(trial),
                                  retry_policy=RETRY)
            result = client.bootstrap()
            assert result.attempts <= RETRY.max_attempts
            successes += 1
        assert successes == 20

    def test_without_policy_fails_fast(self, diamond_network):
        injector = FaultInjector(seed=3)
        env, servers, chaotic = two_server_env(diamond_network, injector)
        chaotic.set_down(True)
        client = Bootstrapper(env, servers, rng=random.Random(0))
        with pytest.raises(TransientBootstrapError):
            client.bootstrap()

    def test_gives_up_when_every_server_down(self, diamond_network):
        injector = FaultInjector(seed=4)
        primary = make_server(diamond_network, "10.0.1.1")
        env = NetworkEnvironment(has_dns_search_domain=True)
        env.dns_srv_hint = (primary.ip, primary.port)
        chaotic = injector.wrap_server(primary, FaultProfile(), name="p")
        chaotic.set_down(True)
        client = Bootstrapper(
            env, {(primary.ip, primary.port): chaotic},
            rng=random.Random(0), retry_policy=RETRY,
        )
        with pytest.raises(TransientBootstrapError, match="gave up"):
            client.bootstrap()

    def test_deadline_bounds_total_wait(self, diamond_network):
        injector = FaultInjector(seed=5)
        primary = make_server(diamond_network, "10.0.1.1")
        env = NetworkEnvironment(has_dns_search_domain=True)
        env.dns_srv_hint = (primary.ip, primary.port)
        chaotic = injector.wrap_server(primary, FaultProfile(), name="p")
        chaotic.set_down(True)
        tight = RetryPolicy(max_attempts=1000, base_delay_s=0.05,
                            max_delay_s=0.5, deadline_s=2.0)
        client = Bootstrapper(
            env, {(primary.ip, primary.port): chaotic},
            rng=random.Random(0), retry_policy=tight,
        )
        with pytest.raises(TransientBootstrapError):
            client.bootstrap()
        # The deadline, not the huge attempt cap, stopped it.
        assert chaotic.refused_requests < 1000


class TestDaemonResilience:
    def test_failed_lookup_never_cached(self, diamond_network):
        calls = []

        def fetch(dst):
            calls.append(dst)
            raise PathServerError("control plane unreachable")

        daemon = Daemon(diamond_network, A, fetch=fetch)
        assert daemon.lookup(B, now=0.0) == []
        assert daemon.lookup(B, now=1.0) == []
        assert len(calls) == 2  # re-queried, not served from cache
        assert daemon.stats.failed_fetches == 2
        assert daemon.stats.cache_hits == 0
        assert daemon.cached_destinations == []

    def test_stale_served_on_refresh_failure(self, diamond_network):
        real = [diamond_network.paths(A, B)]
        fail = []

        def fetch(dst):
            if fail:
                raise PathServerError("refresh failed")
            return list(real[0])

        daemon = Daemon(diamond_network, A, cache_ttl_s=10.0, fetch=fetch)
        fresh = daemon.lookup(B, now=0.0)
        assert fresh and not any(m.stale for m in fresh)
        fail.append(True)
        # Past the TTL with a failing control plane: old paths, marked.
        stale = daemon.lookup(B, now=20.0)
        assert len(stale) == len(fresh)
        assert all(m.stale for m in stale)
        assert daemon.stats.stale_served == 1
        # Refresh healed: fresh paths again, stale flag gone.
        fail.clear()
        healed = daemon.lookup(B, now=40.0)
        assert healed and not any(m.stale for m in healed)
        assert daemon.stats.refreshes == 1

    def test_path_server_error_degrades_to_stale(
        self, diamond_network, monkeypatch
    ):
        daemon = Daemon(diamond_network, A, cache_ttl_s=10.0)
        fresh = daemon.lookup(B, now=0.0)
        assert fresh

        def refuse(*args, **kwargs):
            raise PathServerError("path server unavailable")

        monkeypatch.setattr(diamond_network, "paths", refuse)
        stale = daemon.lookup(B, now=20.0)
        assert [m.fingerprint for m in stale] == [m.fingerprint for m in fresh]
        assert all(m.stale for m in stale)
        assert daemon.stats.failed_fetches == 1
        assert daemon.stats.stale_served == 1

    def test_programming_error_on_lookup_path_propagates(
        self, diamond_network, monkeypatch
    ):
        """A bug is not a failed fetch: it must not be served as stale."""
        daemon = Daemon(diamond_network, A, cache_ttl_s=10.0)
        assert daemon.lookup(B, now=0.0)

        def broken(*args, **kwargs):
            raise AttributeError("'NoneType' object has no attribute 'up'")

        monkeypatch.setattr(diamond_network, "paths", broken)
        with pytest.raises(AttributeError):
            daemon.lookup(B, now=20.0)
        assert daemon.stats.stale_served == 0

    def test_stats_invariant(self, diamond_network):
        daemon = Daemon(diamond_network, A, cache_ttl_s=10.0)
        daemon.lookup(B, now=0.0)    # fetch
        daemon.lookup(B, now=1.0)    # cache hit
        daemon.lookup(B, now=20.0)   # refresh
        stats = daemon.stats
        assert stats.lookups == stats.cache_hits + stats.fetches
        assert (stats.lookups, stats.cache_hits, stats.fetches,
                stats.refreshes) == (3, 1, 2, 1)

    def test_down_interface_reports_expire(self, fresh_diamond_network):
        network = fresh_diamond_network
        daemon = Daemon(network, A, down_interface_ttl_s=60.0)
        baseline = daemon.lookup(B, now=0.0)
        from repro.scion.scmp import interface_down
        ifid = int(baseline[0].interfaces[0].split("#")[1])
        origin = baseline[0].interfaces[0].split("#")[0]
        daemon.handle_scmp(interface_down(origin, ifid), now=0.0)
        assert daemon.down_interfaces == [f"{origin}#{ifid}"]
        filtered = daemon.lookup(B, now=1.0)
        assert len(filtered) < len(baseline)
        # Report expires on its TTL even without a re-probe.
        recovered = daemon.lookup(B, now=61.0)
        assert daemon.down_interfaces == []
        assert len(recovered) == len(baseline)


class TestPanFailover:
    def make_pair(self, network):
        registry = HostRegistry()
        host_a = ScionHost(network, A, "10.0.1.10", registry,
                           daemon=Daemon(network, A))
        host_b = ScionHost(network, B, "10.0.2.20", registry,
                           daemon=Daemon(network, B))
        PanContext(host_b).open_socket(8080).on_message(
            lambda p, s, pa: b"ok"
        )
        client = PanContext(host_a).open_socket()
        return client, host_a, HostAddr(B, host_b.ip, 8080)

    def test_scmp_failover_skips_dead_interface(self, fresh_diamond_network):
        network = fresh_diamond_network
        client, host_a, dst = self.make_pair(network)
        policy = LowestLatencyPolicy()
        warm = client.send_with_failover(dst, b"warm", policy=policy, now=0.5)
        assert warm.success
        network.set_link_state("a-c2", False)
        result = client.send_with_failover(dst, b"ping", policy=policy,
                                           now=1.0)
        assert result.success
        assert result.paths_tried > 1
        # The router's SCMP report landed in the daemon...
        daemon = host_a.daemon
        assert daemon.stats.scmp_interface_down >= 1
        assert daemon.down_interfaces
        # ...so the *next* send avoids the dead interface outright.
        again = client.send_with_failover(dst, b"ping", policy=policy,
                                          now=1.5)
        assert again.success
        assert again.paths_tried == 1

    def test_failover_survives_added_probe_loss(self, fresh_diamond_network):
        """10% probe loss on top of a link cut (ISSUE acceptance bound)."""
        network = fresh_diamond_network
        client, _, dst = self.make_pair(network)
        injector = FaultInjector(seed=6)
        restore = injector.wrap_dataplane(
            network.dataplane, FaultProfile(loss=0.10)
        )
        try:
            policy = LowestLatencyPolicy()
            client.send_with_failover(dst, b"warm", policy=policy, now=0.5)
            network.set_link_state("a-c2", False)
            delivered = 0
            for i in range(20):
                result = client.send_with_failover(
                    dst, b"ping", policy=policy, now=1.0 + i * 0.05
                )
                delivered += bool(result.success)
            assert delivered >= 19  # at most one 50ms retry window lost
        finally:
            restore()

    def test_daemonless_revocation_evicts_library_cache(
        self, fresh_diamond_network
    ):
        """Without a daemon, the revocation a failed probe carries is applied
        to the library's own path cache: every cached path over the revoked
        interface goes, and the next send does not try one."""
        network = fresh_diamond_network
        registry = HostRegistry()
        server = make_server(network, "10.0.1.1")
        env = NetworkEnvironment(has_dns_search_domain=True)
        env.advertise_everywhere(server.ip)
        bootstrapper = Bootstrapper(
            env, {(server.ip, server.port): server}, rng=random.Random(2)
        )
        host_a = ScionHost(network, A, "10.0.1.10", registry,
                           bootstrapper=bootstrapper)
        host_b = ScionHost(network, B, "10.0.2.20", registry,
                           daemon=Daemon(network, B))
        PanContext(host_b).open_socket(8080).on_message(
            lambda p, s, pa: b"ok"
        )
        context = PanContext(host_a)
        assert context.ensure_ready() is AppLibraryMode.STANDALONE
        client = context.open_socket()
        dst = HostAddr(B, host_b.ip, 8080)
        policy = LowestLatencyPolicy()
        warm = client.send_with_failover(dst, b"warm", policy=policy, now=0.5)
        assert warm.success and warm.paths_tried == 1
        cached = context.paths(B)
        network.set_link_state("a-c2", False)
        revoked = network.dataplane.probe(warm.path.path, 1.0).revocation
        assert revoked is not None
        crossing = [m for m in cached if revoked.key in m.interfaces]
        assert crossing and len(crossing) < len(cached)
        result = client.send_with_failover(dst, b"ping", policy=policy,
                                           now=1.0)
        assert result.success and result.paths_tried > 1
        kept = context.paths(B)
        assert [m.fingerprint for m in kept] == [
            m.fingerprint for m in cached if m not in crossing
        ]
        again = client.send_with_failover(dst, b"ping", policy=policy,
                                          now=1.5)
        assert again.success and again.paths_tried == 1
        assert revoked.key not in again.path.interfaces
