"""Control-plane overload wiring: path server, registry, and CA guards."""

import pytest

from repro.resilience.overload import OverloadGuard, OverloadRejected
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork
from repro.scion.topology import GlobalTopology, LinkType

A = IA.parse("71-100")
B = IA.parse("71-200")


def _diamond():
    topo = GlobalTopology()
    c1, c2 = IA.parse("71-1"), IA.parse("71-2")
    topo.add_as(c1, is_core=True, name="core1")
    topo.add_as(c2, is_core=True, name="core2")
    topo.add_as(A, name="leafA")
    topo.add_as(B, name="leafB")
    topo.add_link(c1, c2, LinkType.CORE, 0.010, link_name="c1c2")
    topo.add_link(A, c1, LinkType.PARENT, 0.005, link_name="a-c1")
    topo.add_link(A, c2, LinkType.PARENT, 0.006, link_name="a-c2")
    topo.add_link(B, c2, LinkType.PARENT, 0.004, link_name="b-c2")
    return topo


@pytest.fixture()
def network():
    return ScionNetwork(_diamond(), seed=9)


class TestPathServerGuard:
    def test_lookup_without_guard_is_unchanged(self, network):
        server = network.services[A].path_server
        ups, cores, downs, timing = server.segments_for(B, now=0.0)
        assert downs
        assert timing.latency_s >= 0.0

    def test_admitted_lookup_pays_the_queueing_delay(self, network):
        server = network.services[A].path_server
        server.segments_for(B, now=0.0)  # warm: cached base latency is 0
        guard = OverloadGuard(0.01, codel_target_s=None)
        guard.offer(10.0)
        guard.offer(10.0)  # 20 ms backlog ahead of the next lookup
        server.guard = guard
        _, _, _, timing = server.segments_for(B, now=10.0)
        assert timing.latency_s == pytest.approx(0.02)

    def test_refused_lookup_raises_overload_rejected(self, network):
        server = network.services[A].path_server
        guard = OverloadGuard(0.01, queue_capacity=1, codel_target_s=None)
        guard.offer(0.0)
        server.guard = guard
        with pytest.raises(OverloadRejected):
            server.segments_for(B, now=0.0)

    def test_guard_ignored_without_now(self, network):
        server = network.services[A].path_server
        guard = OverloadGuard(0.01, queue_capacity=1, codel_target_s=None)
        guard.offer(0.0)
        server.guard = guard
        # Legacy call sites pass no clock: admission must not engage.
        ups, cores, downs, _ = server.segments_for(B)
        assert downs
        assert guard.stats.offered == 1  # only the priming offer

    def test_network_paths_propagates_deadline(self, network):
        guard = OverloadGuard(0.01, codel_target_s=None)
        guard.offer(0.0)  # 10 ms backlog
        network.services[A].path_server.guard = guard
        with pytest.raises(OverloadRejected):
            network.paths(A, B, now=0.0, deadline_s=0.005)
        assert guard.stats.rejected_deadline == 1
        # Deadline-free lookups keep working (and can use the memo).
        assert network.paths(A, B)


class TestRegistryGuard:
    def test_shed_registration_is_dropped_silently(self, network):
        registry = network.registry
        segment = next(iter(registry.down_segments(A)))
        guard = OverloadGuard(0.01, queue_capacity=1, codel_target_s=None)
        guard.offer(0.0)  # fill the queue
        registry.guard = guard
        try:
            version = registry.version
            registrations = registry.stats.registrations
            registry.register_down(segment, now=0.0)
            # Refused: no mutation, no registration counted — beaconing
            # re-registers on the next round anyway.
            assert registry.version == version
            assert registry.stats.registrations == registrations
            assert guard.stats.rejected_queue_full == 1
        finally:
            registry.guard = None

    def test_registration_without_clock_bypasses_guard(self, network):
        registry = network.registry
        segment = next(iter(registry.down_segments(A)))
        guard = OverloadGuard(0.01, queue_capacity=1, codel_target_s=None)
        guard.offer(0.0)
        registry.guard = guard
        try:
            version = registry.version
            registry.register_down(segment)
            assert registry.version == version + 1
        finally:
            registry.guard = None


class TestCaGuard:
    def test_renewals_ride_through_as_critical(self, network):
        ca = network.isd_trust[71].ca
        guard = OverloadGuard(
            0.01, codel_target_s=0.005, codel_interval_s=0.05,
            queue_capacity=None, deadline_admission=False,
            critical_priority=0,
        )
        # Saturate far past the CoDel interval: bulk work would be shed,
        # but issuance goes through admission at priority 0.
        for _ in range(50):
            guard.offer(0.0)
        assert guard.offer(0.06).verdict.value == "shed-codel"
        ca.guard = guard
        try:
            service = network.services[A]
            issued = ca.issue_as_certificate(
                str(A), service.signing_key.public, now=0.06
            )
            assert issued.certificate.subject == str(A)
        finally:
            ca.guard = None

    def test_saturated_ca_rejects_when_bounded(self, network):
        ca = network.isd_trust[71].ca
        guard = OverloadGuard(0.01, queue_capacity=1, codel_target_s=None)
        guard.offer(0.0)
        ca.guard = guard
        try:
            service = network.services[A]
            with pytest.raises(OverloadRejected):
                ca.issue_as_certificate(
                    str(A), service.signing_key.public, now=0.0
                )
        finally:
            ca.guard = None
