"""Endhost overload integration: daemon stale-serve, pan/bootstrap gating.

The client side of graceful degradation: a daemon that honors an overload
rejection by serving stale instead of retrying, congestion SCMP that never
down-marks an interface, and pan/bootstrap retries bounded by a shared
retry budget and circuit breaker.
"""

import random

import pytest

from repro.core.overload import CircuitBreaker, OverloadGuard, RetryBudget
from repro.core.retry import RetryPolicy
from repro.endhost.bootstrap import (
    BootstrapError,
    Bootstrapper,
    BootstrapServer,
    NetworkEnvironment,
    TransientBootstrapError,
)
from repro.endhost.daemon import Daemon
from repro.endhost.pan import HostRegistry, PanContext, ScionHost
from repro.endhost.policy import LowestLatencyPolicy
from repro.netsim.chaos import FaultInjector, FaultProfile
from repro.scion.addr import HostAddr, IA
from tests.scion.reference_codec import queue_full

A = IA.parse("71-100")
B = IA.parse("71-200")


@pytest.fixture()
def world(fresh_diamond_network):
    net = fresh_diamond_network
    registry = HostRegistry()
    host_a = ScionHost(net, A, "10.0.1.10", registry, daemon=Daemon(net, A))
    host_b = ScionHost(net, B, "10.0.2.20", registry, daemon=Daemon(net, B))
    return net, registry, host_a, host_b


class TestDaemonOverload:
    def test_rejection_serves_stale_without_retry(self, world):
        net, _, host_a, _ = world
        daemon = host_a.daemon
        fresh = daemon.lookup(B, now=0.0)
        assert fresh and not any(p.stale for p in fresh)
        # Saturate the path server's guard, then force a refresh past the
        # cache TTL: the fetch is rejected and the daemon degrades to the
        # stale copy instead of hammering the browned-out server.
        later = daemon.cache_ttl_s + 1.0
        guard = OverloadGuard(0.01, queue_capacity=1, codel_target_s=None)
        guard.offer(later)
        net.services[A].path_server.guard = guard
        try:
            stale = daemon.lookup(B, now=later, deadline_s=later + 0.05)
            assert daemon.stats.rejected_overload == 1
            assert daemon.stats.stale_served == 1
            assert stale and all(p.stale for p in stale)
            assert guard.stats.rejected_queue_full == 1
            # The priming offer plus exactly one fetch — no retries.
            assert guard.stats.offered == 2
        finally:
            net.services[A].path_server.guard = None

    def test_deadline_propagates_to_path_server(self, world):
        net, _, host_a, _ = world
        daemon = host_a.daemon
        guard = OverloadGuard(0.01, codel_target_s=None)
        guard.offer(0.0)  # 10 ms backlog
        net.services[A].path_server.guard = guard
        try:
            # 5 ms of budget cannot cover the 10 ms backlog: rejected up
            # front, and with no cache yet the lookup comes back empty.
            paths = daemon.lookup(B, now=0.0, deadline_s=0.005)
            assert paths == []
            assert daemon.stats.rejected_overload == 1
            assert guard.stats.rejected_deadline == 1
        finally:
            net.services[A].path_server.guard = None

    def test_congestion_scmp_never_marks_interfaces_down(self, world):
        net, _, host_a, _ = world
        daemon = host_a.daemon
        before = daemon.lookup(B, now=0.0)
        origin, ifid = before[0].interfaces[0].split("#")
        daemon.handle_scmp(queue_full(origin, int(ifid)), now=1.0)
        assert daemon.stats.scmp_congestion == 1
        assert daemon.stats.scmp_interface_down == 0
        # All paths survive: congestion must not look like an outage.
        assert len(daemon.lookup(B, now=1.0)) == len(before)


class TestPanOverloadGating:
    def _client(self, world):
        net, registry, host_a, host_b = world
        ctx_a, ctx_b = PanContext(host_a), PanContext(host_b)
        ctx_b.open_socket(8080).on_message(lambda p, s, pa: b"ok")
        return net, ctx_a.open_socket(), HostAddr(B, host_b.ip, 8080)

    def test_retry_budget_stops_failover_amplification(self, world):
        net, client, dst = self._client(world)
        policy = LowestLatencyPolicy()
        client.send_with_failover(dst, b"warm", policy=policy, now=0.0)
        budget = RetryBudget(ratio=0.0, capacity=1.0)
        assert budget.try_retry()  # drain the bucket up front
        net.set_link_state("a-c1", False)
        net.set_link_state("a-c2", False)
        try:
            result = client.send_with_failover(
                dst, b"ping", policy=policy, max_attempts=4, now=1.0,
                retry_budget=budget,
            )
            assert not result.success
            # The first failover attempt needs a token; with ratio=0 the
            # fresh request earned none, so the storm stops immediately.
            assert result.failure == "retry-budget-exhausted"
            assert budget.spent == 1
            assert budget.exhausted == 1
        finally:
            net.set_link_state("a-c1", True)
            net.set_link_state("a-c2", True)

    def test_open_breaker_refuses_locally(self, world):
        net, client, dst = self._client(world)
        policy = LowestLatencyPolicy()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0)
        breaker.record_failure(0.0)
        result = client.send_with_failover(
            dst, b"ping", policy=policy, now=1.0, breaker=breaker,
        )
        assert not result.success
        assert result.failure == "circuit-open"

    def test_breaker_closes_after_successful_probe(self, world):
        net, client, dst = self._client(world)
        policy = LowestLatencyPolicy()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0)
        breaker.record_failure(0.0)
        result = client.send_with_failover(
            dst, b"ping", policy=policy, now=6.0, breaker=breaker,
        )
        assert result.success  # the half-open probe
        assert breaker.allow(6.1)


class TestBootstrapOverloadGating:
    def _chaotic_setup(self, net, down):
        service = net.services[A]
        server = BootstrapServer(
            topology=service.topology, signing_key=service.signing_key,
            certificate=service.certificate, trcs=[net.trc_for(71)],
        )
        injector = FaultInjector(seed=3)
        chaotic = injector.wrap_server(
            server, FaultProfile(), name="bootstrap"
        )
        if down:
            chaotic.set_down(True, now=0.0)
        env = NetworkEnvironment(has_dns_search_domain=True)
        env.advertise_everywhere(server.ip, server.port)
        return env, {(server.ip, server.port): chaotic}, chaotic

    def test_retry_budget_bounds_bootstrap_attempts(self, world):
        net, *_ = world
        env, servers, chaotic = self._chaotic_setup(net, down=True)
        budget = RetryBudget(ratio=0.0, capacity=2.0)
        client = Bootstrapper(
            env, servers, rng=random.Random(4),
            retry_policy=RetryPolicy(max_attempts=10, base_delay_s=0.01,
                                     max_delay_s=0.1, deadline_s=60.0),
            retry_budget=budget,
        )
        with pytest.raises(BootstrapError, match="retry budget exhausted"):
            client.bootstrap()
        # 1 fresh attempt + at most the 2 budgeted retries ever reach the
        # server — the budget, not the retry policy's 10 attempts, binds.
        assert 1 <= chaotic.refused_requests <= 3
        assert budget.exhausted == 1

    def test_open_breaker_fails_fast(self, world):
        net, *_ = world
        env, servers, chaotic = self._chaotic_setup(net, down=False)
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=100.0)
        breaker.record_failure(0.0)
        client = Bootstrapper(
            env, servers, rng=random.Random(5), breaker=breaker,
        )
        with pytest.raises(TransientBootstrapError, match="circuit open"):
            client.bootstrap()
        assert chaotic.refused_requests == 0  # refused locally, server untouched

    def test_breaker_records_bootstrap_outcomes(self, world):
        net, *_ = world
        env, servers, _ = self._chaotic_setup(net, down=False)
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=1.0)
        client = Bootstrapper(
            env, servers, rng=random.Random(6), breaker=breaker,
        )
        client.bootstrap()
        assert breaker.state.value == "closed"
        assert breaker.transitions == []
