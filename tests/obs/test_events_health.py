"""The unified event log and the network health report."""

from repro.core.monitoring import Alert
from repro.netsim.chaos import FaultEvent
from repro.obs import EventLog, NullEventLog, Telemetry, build_health_report
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
    topo.add_link(c1, c2, LinkType.CORE, 0.010, link_name="c1c2-a")
    topo.add_link(A, c1, LinkType.PARENT, 0.005, link_name="a-c1")
    topo.add_link(A, c2, LinkType.PARENT, 0.006, link_name="a-c2")
    topo.add_link(B, c2, LinkType.PARENT, 0.004, link_name="b-c2")
    return topo


def _lost(time_s, src="71-100", dst="71-200"):
    return Alert(time_s=time_s, kind="connectivity-lost", src=src, dst=dst,
                 email_to="noc@example.net", detail="probe timeout")


def _restored(time_s, src="71-100", dst="71-200"):
    return Alert(time_s=time_s, kind="connectivity-restored", src=src,
                 dst=dst, email_to="noc@example.net")


class TestEventLog:
    def test_timeline_orders_by_time_then_sequence(self):
        log = EventLog()
        log.record(2.0, "chaos", "link-down", target="x")
        log.record(1.0, "supervisor", "service-restart", target="ps")
        log.record(1.0, "monitor", "connectivity-lost", target="a->b")
        kinds = [e.kind for e in log.timeline()]
        assert kinds == ["service-restart", "connectivity-lost", "link-down"]

    def test_filters(self):
        log = EventLog()
        log.record(1.0, "chaos", "link-down")
        log.record(2.0, "chaos", "link-up")
        log.record(3.0, "supervisor", "service-crash")
        assert len(log.timeline(source="chaos")) == 2
        assert len(log.timeline(kind="link-up")) == 1
        assert len(log.timeline(since=2.5)) == 1

    def test_alert_dedup_for_already_down_pair(self):
        log = EventLog()
        assert log.record_alert(_lost(1.0)) is not None
        assert log.record_alert(_lost(1.5)) is None  # same pair, still down
        assert log.suppressed_alerts == 1
        assert log.down_pairs() == ["71-100->71-200"]
        assert log.record_alert(_restored(2.0)) is not None
        assert log.down_pairs() == []
        # After restoration the next loss is news again.
        assert log.record_alert(_lost(3.0)) is not None
        assert log.suppressed_alerts == 1

    def test_distinct_pairs_not_deduplicated(self):
        log = EventLog()
        assert log.record_alert(_lost(1.0)) is not None
        assert log.record_alert(_lost(1.0, dst="71-2")) is not None
        assert log.suppressed_alerts == 0

    def test_fault_severity_mapping(self):
        log = EventLog()
        down = log.record_fault(FaultEvent(1.0, "a-c1", "link-down"))
        up = log.record_fault(FaultEvent(2.0, "a-c1", "link-up"))
        assert down.severity == "critical"
        assert up.severity == "info"

    def test_supervisor_sink_adapter(self):
        log = EventLog()
        sink = log.supervisor_sink()
        sink(1.0, "ps:71-200", "service-crash", "chaos kill")
        sink(2.0, "ps:71-200", "service-restart", "warm")
        (crash, restart) = log.timeline(source="supervisor")
        assert crash.severity == "critical"
        assert restart.severity == "info"

    def test_digest_is_deterministic_and_sensitive(self):
        def build(extra=False):
            log = EventLog()
            log.record(1.0, "chaos", "link-down", target="a-c1")
            if extra:
                log.record(2.0, "chaos", "link-up", target="a-c1")
            return log.digest()

        assert build() == build()
        assert build() != build(extra=True)

    def test_null_event_log_records_nothing(self):
        log = NullEventLog()
        log.record(1.0, "chaos", "link-down")
        assert log.record_alert(_lost(1.0)) is None
        assert log.events == []


class TestHealthReport:
    def _network(self):
        tel = Telemetry()
        network = ScionNetwork(_diamond(), seed=5, telemetry=tel)
        return network, tel

    def test_fresh_network_is_healthy(self):
        network, _ = self._network()
        report = build_health_report(network, now=float(network.timestamp))
        assert report.healthy
        assert report.down_links == []
        # Beaconing ran at construction: every AS has a fresh segment.
        assert set(report.beacon_freshness_s) == {
            str(ia) for ia in network.topology.ases
        }
        assert all(
            age is not None and age < 3600.0
            for age in report.beacon_freshness_s.values()
        )

    def test_down_link_flips_health(self):
        network, tel = self._network()
        network.set_link_state("a-c2", False)
        try:
            report = build_health_report(
                network, now=float(network.timestamp), events=tel.events
            )
            assert not report.healthy
            assert "a-c2" in report.down_links
            text = report.render()
            assert "a-c2" in text
            assert "down links" in text
        finally:
            network.set_link_state("a-c2", True)

    def test_report_drops_marks_and_revocations_past_their_ttl(self):
        """The status page must not outlive the facts: TTLs lapse lazily in
        the router and the registry, but the report reads them at ``now``
        — and reading must not purge anything or bump a counter."""
        network, _ = self._network()
        t0 = float(network.timestamp)
        network.revoke_interface(A, 2, now=t0, ttl_s=1.0)
        during = build_health_report(network, now=t0 + 0.5)
        assert during.down_interfaces[str(A)] == [2]
        assert during.active_revocations == [f"{A}#2"]
        assert during.quarantined_segments > 0
        assert during.status == "DEGRADED"

        version = network.registry.version
        after = build_health_report(network, now=t0 + 5.0)
        assert after.down_interfaces[str(A)] == []
        assert after.active_revocations == []
        assert after.quarantined_segments == 0
        assert after.status == "OK"
        # A pure read: the lapsed state is still there for the next packet
        # or lookup to remove, and the registry version did not move.
        assert network.dataplane.routers[A].down_interfaces == {2}
        assert len(network.registry.active_revocations()) == 1
        assert network.registry.version == version

        # An operator mark carries no TTL and stays listed.
        network.dataplane.routers[B].mark_interface_down(1)
        later = build_health_report(network, now=t0 + 1e9)
        assert later.down_interfaces[str(B)] == [1]

    def test_report_serializes(self):
        import json

        network, tel = self._network()
        report = build_health_report(
            network, now=float(network.timestamp), events=tel.events
        )
        doc = json.loads(report.to_json())
        assert doc["quarantined_segments"] == 0
        assert doc["status"] == "OK"

    def test_overloaded_is_its_own_status_tier(self):
        from repro.core.overload import OverloadGuard

        network, _ = self._network()
        now = float(network.timestamp)
        guard = OverloadGuard(0.01, name="ps-a", codel_target_s=0.005)
        for _ in range(5):
            guard.offer(now)  # 50 ms backlog: well past the 5 ms target
        report = build_health_report(network, now=now, guards={"ps-a": guard})
        # Everything is up — the service is saturated, not broken.
        assert report.healthy
        assert report.status == "OVERLOADED"
        assert report.overloaded_services["ps-a"] > 0.005
        text = report.render()
        assert "OVERLOADED" in text
        assert "ps-a: queue delay" in text

    def test_down_outranks_overloaded(self):
        from repro.core.overload import OverloadGuard

        network, _ = self._network()
        now = float(network.timestamp)
        guard = OverloadGuard(0.01, name="ps-a", codel_target_s=0.005)
        for _ in range(5):
            guard.offer(now)
        network.set_link_state("a-c2", False)
        try:
            report = build_health_report(
                network, now=now, guards={"ps-a": guard}
            )
            assert report.status == "DOWN"
            assert report.overloaded_services  # still listed, outranked
        finally:
            network.set_link_state("a-c2", True)

    def test_idle_guard_does_not_surface(self):
        from repro.core.overload import OverloadGuard

        network, _ = self._network()
        now = float(network.timestamp)
        guard = OverloadGuard(0.01, name="ps-a", codel_target_s=0.005)
        report = build_health_report(network, now=now, guards={"ps-a": guard})
        assert report.status == "OK"
        assert report.overloaded_services == {}
