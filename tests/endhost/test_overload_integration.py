"""Endhost overload integration: the daemon side of graceful degradation.

A daemon that honors an overload rejection by serving stale instead of
retrying, a deadline that reaches the path server, and congestion SCMP
that never down-marks an interface.
"""

import pytest

from repro.endhost.daemon import Daemon
from repro.endhost.pan import HostRegistry, ScionHost
from repro.resilience.overload import OverloadGuard
from repro.scion.addr import IA
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
