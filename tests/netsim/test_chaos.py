"""Tests for the chaos layer: fault injection on links, probes, servers."""

import dataclasses

import pytest

from repro.netsim.chaos import (
    Arrival,
    CaOutage,
    ChaosError,
    FaultEvent,
    FaultInjector,
    FaultProfile,
    LoadSurge,
    ServerOutage,
)
from repro.netsim.failures import FailureSchedule
from repro.netsim.link import Link
from repro.netsim.simulator import Simulator
from repro.scion.addr import IA


@dataclasses.dataclass(frozen=True)
class FakeProbeResult:
    success: bool
    rtt_s: float = 0.0
    one_way_s: float = 0.0
    failure: str = ""


class FakeServer:
    ip = "10.0.0.1"
    port = 8041
    processing_s = 0.002

    def __init__(self):
        self.topology_calls = 0
        self.trc_calls = 0

    def get_topology(self):
        self.topology_calls += 1
        return "topology"

    def get_trcs(self):
        self.trc_calls += 1
        return ["trc"]


def deliver_counter():
    state = {"count": 0}

    def deliver():
        state["count"] += 1

    return state, deliver


class TestFaultProfile:
    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ChaosError):
            FaultProfile(loss=1.0)
        with pytest.raises(ChaosError):
            FaultProfile(outage=-0.1)
        with pytest.raises(ChaosError):
            FaultProfile(latency_spike_s=-1.0)

    def test_defaults_inject_nothing(self):
        profile = FaultProfile()
        assert (profile.loss, profile.duplicate, profile.corrupt,
                profile.outage) == (0.0, 0.0, 0.0, 0.0)


class TestLinkWrapping:
    def run_frames(self, profile, n=400, seed=1):
        sim = Simulator()
        link = Link("l", "x", "y", latency_s=0.01)
        injector = FaultInjector(seed=seed)
        restore = injector.wrap_link(link, profile)
        state, deliver = deliver_counter()
        for _ in range(n):
            link.transmit(sim, "x", 100, deliver)
        sim.run()
        return injector, link, state, restore

    def test_loss_drops_frames(self):
        injector, link, state, _ = self.run_frames(FaultProfile(loss=0.3))
        losses = sum(1 for e in injector.events if e.kind == "loss")
        assert losses > 0
        assert state["count"] == 400 - losses
        assert link.stats.frames_dropped_loss == losses

    def test_corrupt_drops_frames(self):
        injector, link, state, _ = self.run_frames(FaultProfile(corrupt=0.3))
        corrupted = sum(1 for e in injector.events if e.kind == "corrupt")
        assert corrupted > 0
        assert state["count"] == 400 - corrupted

    def test_duplicate_delivers_twice(self):
        injector, link, state, _ = self.run_frames(FaultProfile(duplicate=0.3))
        dupes = sum(1 for e in injector.events if e.kind == "duplicate")
        assert dupes > 0
        assert state["count"] == 400 + dupes

    def test_latency_spike_delays_delivery(self):
        sim = Simulator()
        link = Link("l", "x", "y", latency_s=0.01)
        injector = FaultInjector(seed=3)
        # Always spike, so the single frame must arrive late.
        injector.wrap_link(
            link, FaultProfile(latency_spike=0.99, latency_spike_s=0.5)
        )
        arrivals = []
        link.transmit(sim, "x", 100, lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(0.51)]
        assert link.latency_s == 0.01  # restored after the frame

    def test_restore_removes_wrapper(self):
        injector, link, state, restore = self.run_frames(FaultProfile(loss=0.5))
        restore()
        before = len(injector.events)
        sim = Simulator()
        for _ in range(100):
            link.transmit(sim, "x", 100, lambda: None)
        sim.run()
        assert len(injector.events) == before

    def test_same_seed_same_fault_stream(self):
        a, _, _, _ = self.run_frames(FaultProfile(loss=0.2, duplicate=0.1), seed=9)
        b, _, _, _ = self.run_frames(FaultProfile(loss=0.2, duplicate=0.1), seed=9)
        assert a.events == b.events
        assert a.event_digest() == b.event_digest()

    def test_different_seed_different_stream(self):
        profile = FaultProfile(loss=0.3, duplicate=0.3)
        a, _, _, _ = self.run_frames(profile, seed=1)
        b, _, _, _ = self.run_frames(profile, seed=2)
        assert [e.kind for e in a.events] != [e.kind for e in b.events]


class TestProbeFilter:
    def test_loss_fails_probe(self):
        injector = FaultInjector(seed=4)
        apply = injector.probe_filter(FaultProfile(loss=0.99), "path")
        result = apply(FakeProbeResult(True, rtt_s=0.1, one_way_s=0.05), 1.0)
        assert not result.success
        assert result.failure == "chaos-loss"

    def test_spike_inflates_latency(self):
        injector = FaultInjector(seed=4)
        apply = injector.probe_filter(
            FaultProfile(latency_spike=0.99, latency_spike_s=0.2), "path"
        )
        result = apply(FakeProbeResult(True, rtt_s=0.1, one_way_s=0.05), 1.0)
        assert result.success
        assert result.rtt_s == pytest.approx(0.5)
        assert result.one_way_s == pytest.approx(0.25)

    def test_failed_probe_passes_through(self):
        injector = FaultInjector(seed=4)
        apply = injector.probe_filter(FaultProfile(loss=0.99), "path")
        original = FakeProbeResult(False, failure="link-down")
        assert apply(original, 1.0) is original
        assert injector.events == []

    def test_wrap_dataplane_restores(self, fresh_diamond_network):
        dataplane = fresh_diamond_network.dataplane
        path = diamond_path(fresh_diamond_network)
        injector = FaultInjector(seed=4)
        restore = injector.wrap_dataplane(dataplane, FaultProfile(loss=0.99))
        assert dataplane.probe(path, 0.0).failure == "chaos-loss"
        restore()
        assert dataplane.probe(path, 0.0).success

    def test_wrap_link_loss_fails_a_probe_over_that_link(self, fresh_diamond_network):
        """The analytic walk reads the link's fault seam as ``transmit``
        does: a loss window on one link of the path fails the probe there,
        and is invisible again once its remover ran."""
        dataplane = fresh_diamond_network.dataplane
        path = diamond_path(fresh_diamond_network)
        link = dataplane.analyze(path, 0.0).links[0]
        injector = FaultInjector(seed=4)
        restore = injector.wrap_link(link, FaultProfile(loss=0.99))
        result = dataplane.probe(path, 0.0)
        assert (result.failure, result.failed_at) == ("chaos-loss", IA.parse("71-100"))
        assert result.scmp is None and result.revocation is None
        assert [(e.target, e.kind) for e in injector.events] == [(link.name, "loss")]
        restore()
        assert dataplane.probe(path, 0.0).success
        assert len(injector.events) == 1


def diamond_path(network):
    return network.paths(IA.parse("71-100"), IA.parse("71-200"))[0].path


class TestOverlappingWindows:
    """Two fault windows on one target, healed in either order: removing
    one leaves the other in force, removing both leaves nothing behind."""

    @pytest.mark.parametrize("first_out", [0, 1])
    def test_wrap_dataplane_removers_compose(self, fresh_diamond_network, first_out):
        dataplane = fresh_diamond_network.dataplane
        path = diamond_path(fresh_diamond_network)
        injectors = [FaultInjector(seed=1), FaultInjector(seed=2)]
        removers = [
            injectors[0].wrap_dataplane(dataplane, FaultProfile(loss=0.999), "A"),
            injectors[1].wrap_dataplane(
                dataplane, FaultProfile(latency_spike=0.999), "B"
            ),
        ]
        removers[first_out]()
        stays = injectors[1 - first_out]
        before = len(stays.events)
        for _ in range(5):
            dataplane.probe(path, 1.0)
        assert len(stays.events) == before + 5  # its window is still open
        removers[1 - first_out]()
        recorded = [len(injector.events) for injector in injectors]
        assert all(dataplane.probe(path, 2.0).success for _ in range(100))
        assert [len(injector.events) for injector in injectors] == recorded

    @pytest.mark.parametrize("first_out", [0, 1])
    def test_wrap_link_removers_compose(self, first_out):
        sim = Simulator()
        link = Link("l", "x", "y", latency_s=0.01)
        injectors = [FaultInjector(seed=1), FaultInjector(seed=2)]
        removers = [
            injectors[0].wrap_link(link, FaultProfile(loss=0.999)),
            injectors[1].wrap_link(link, FaultProfile(latency_spike=0.999)),
        ]
        removers[first_out]()
        stays = injectors[1 - first_out]
        before = len(stays.events)
        for _ in range(5):
            link.transmit(sim, "x", 100, lambda: None)
        assert len(stays.events) == before + 5  # its window is still open
        removers[1 - first_out]()
        recorded = [len(injector.events) for injector in injectors]
        state, deliver = deliver_counter()
        drops = []
        for _ in range(100):
            link.transmit(sim, "x", 100, deliver, drops.append)
        sim.run()
        assert (state["count"], drops) == (100, [])
        assert [len(injector.events) for injector in injectors] == recorded


class TestFaultyServer:
    def test_transparent_when_healthy(self):
        injector = FaultInjector()
        proxy = injector.wrap_server(FakeServer(), FaultProfile(), name="s")
        assert proxy.get_topology() == "topology"
        assert proxy.get_trcs() == ["trc"]
        assert (proxy.ip, proxy.port, proxy.processing_s) == (
            "10.0.0.1", 8041, 0.002
        )
        assert proxy.refused_requests == 0

    def test_hard_outage_refuses_everything(self):
        injector = FaultInjector()
        server = FakeServer()
        proxy = injector.wrap_server(server, FaultProfile(), name="s")
        proxy.set_down(True, now=5.0)
        with pytest.raises(ServerOutage):
            proxy.get_topology()
        with pytest.raises(ServerOutage):
            proxy.get_trcs()
        assert server.topology_calls == 0
        assert proxy.refused_requests == 2
        proxy.set_down(False, now=6.0)
        assert proxy.get_topology() == "topology"
        kinds = [e.kind for e in injector.events]
        assert kinds == ["server-outage", "server-recovery"]

    def test_probabilistic_outage(self):
        injector = FaultInjector(seed=8)
        proxy = injector.wrap_server(
            FakeServer(), FaultProfile(outage=0.5), name="s"
        )
        outcomes = []
        for _ in range(200):
            try:
                proxy.get_topology()
                outcomes.append(True)
            except ServerOutage:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)
        assert proxy.refused_requests == outcomes.count(False)

    def test_outage_is_transient(self):
        assert ServerOutage.transient is True


class TestScheduleObservation:
    def test_schedule_flips_mirrored_into_stream(self):
        sim = Simulator()
        link = Link("wan", "x", "y", latency_s=0.01)
        schedule = FailureSchedule()
        schedule.add_cable_cut("wan", time_s=10.0, repair_s=20.0)
        injector = FaultInjector()
        injector.observe_schedule(schedule)
        schedule.install(sim, {"wan": link})
        sim.run()
        assert injector.events == [
            FaultEvent(10.0, "wan", "link-down", "cable-cut"),
            FaultEvent(20.0, "wan", "link-up", "repaired"),
        ]


class FakeCa:
    """CaService-shaped stub: issues opaque tokens and counts calls."""

    as_cert_lifetime_s = 3600.0
    latest = None
    issued = {}

    def __init__(self):
        self.issue_calls = 0

    def issue_as_certificate(self, subject_ia, public_key, now, lifetime_s=None):
        self.issue_calls += 1
        return ("cert", subject_ia, now)

    def renew(self, subject_ia, now):
        self.issue_calls += 1
        return ("cert", subject_ia, now)

    def needs_renewal(self, cert, now, renewal_fraction=None):
        return False

    def issuance_count(self, subject_ia=None):
        return self.issue_calls


class TestFaultyCa:
    def test_transparent_when_healthy(self):
        from repro.netsim.chaos import FaultyCa

        ca = FakeCa()
        faulty = FaultInjector(seed=1).wrap_ca(ca, FaultProfile(), name="ca")
        assert isinstance(faulty, FaultyCa)
        assert faulty.issue_as_certificate("71-10", b"pk", 5.0)[0] == "cert"
        assert faulty.renew("71-10", 6.0)[0] == "cert"
        assert ca.issue_calls == 2
        assert faulty.refused_requests == 0

    def test_hard_outage_refuses_and_records(self):
        from repro.netsim.chaos import CaOutage

        injector = FaultInjector(seed=1)
        faulty = injector.wrap_ca(FakeCa(), FaultProfile(), name="ca-isd71")
        faulty.set_down(True, now=3.0)
        with pytest.raises(CaOutage):
            faulty.issue_as_certificate("71-10", b"pk", 4.0)
        with pytest.raises(CaOutage):
            faulty.renew("71-10", 4.5)
        faulty.set_down(False, now=5.0)
        assert faulty.issue_as_certificate("71-10", b"pk", 6.0)
        assert faulty.refused_requests == 2
        kinds = [event.kind for event in injector.events]
        assert kinds == ["ca-outage", "ca-recovery"]

    def test_outage_is_transient_for_retry_policies(self):
        from repro.netsim.chaos import CaOutage

        assert CaOutage("down").transient is True

    def test_probabilistic_refusals_recorded_in_stream(self):
        from repro.netsim.chaos import CaOutage

        injector = FaultInjector(seed=7)
        faulty = injector.wrap_ca(
            FakeCa(), FaultProfile(outage=0.5), name="ca"
        )
        refused = 0
        for i in range(100):
            try:
                faulty.renew("71-10", float(i))
            except CaOutage:
                refused += 1
        assert 20 <= refused <= 80
        per_request = [
            event for event in injector.events if event.detail == "per-request"
        ]
        assert len(per_request) == refused

    def test_read_side_helpers_never_gated(self):
        injector = FaultInjector(seed=1)
        faulty = injector.wrap_ca(FakeCa(), FaultProfile(), name="ca")
        faulty.set_down(True, now=0.0)
        assert faulty.needs_renewal(None, 0.0) is False
        assert faulty.issuance_count() == 0


class TestOutageProxy:
    """FaultyServer and FaultyCa are two declarations over one proxy: it
    gates exactly the declared requests and is transparent otherwise."""

    CASES = [
        (FakeServer, "wrap_server", ServerOutage,
         {"get_topology": (), "get_trcs": ()},
         ["ip", "port", "processing_s", "topology_calls"]),
        (FakeCa, "wrap_ca", CaOutage,
         {"issue_as_certificate": ("71-10", b"pk", 1.0), "renew": ("71-10", 1.0)},
         ["as_cert_lifetime_s", "latest", "issued", "needs_renewal",
          "issuance_count", "issue_calls"]),
    ]

    @pytest.mark.parametrize("make, wrap, error, gated, delegated", CASES)
    def test_gates_the_declared_requests_and_delegates_the_rest(
        self, make, wrap, error, gated, delegated
    ):
        target = make()
        proxy = getattr(FaultInjector(seed=1), wrap)(target, FaultProfile(), name="t")
        assert set(proxy.gated) == set(gated)
        proxy.set_down(True, now=0.0)
        for name in vars(type(target)).keys() | vars(target).keys():
            if name.startswith("_"):
                continue
            if name in gated:
                with pytest.raises(error):
                    getattr(proxy, name)(*gated[name])
            else:
                assert getattr(proxy, name) == getattr(target, name)
        for name in delegated:
            assert getattr(proxy, name) == getattr(target, name)
        assert proxy.refused_requests == len(gated)
        with pytest.raises(AttributeError):
            proxy.no_such_member

    def test_per_request_refusal_is_stamped_with_the_request_time(self):
        injector = FaultInjector(seed=7)
        faulty = injector.wrap_ca(FakeCa(), FaultProfile(outage=0.9), name="ca")
        for call in (
            lambda: faulty.renew("71-10", 3.0),
            lambda: faulty.renew("71-10", now=4.0),
            lambda: faulty.issue_as_certificate("71-10", b"pk", now=5.0),
        ):
            with pytest.raises(CaOutage):
                call()
        assert [(e.time_s, e.kind, e.detail) for e in injector.events] == [
            (t, "ca-outage", "per-request") for t in (3.0, 4.0, 5.0)
        ]


class TestCrashServiceFault:
    class FakeSupervisor:
        def __init__(self):
            self.crashes = []

        def crash(self, name, now):
            self.crashes.append((name, now))

    def test_crash_lands_in_supervisor_and_stream(self):
        injector = FaultInjector(seed=1)
        supervisor = self.FakeSupervisor()
        injector.crash_service(supervisor, "control", 12.0, detail="upgrade")
        assert supervisor.crashes == [("control", 12.0)]
        assert injector.events == [
            FaultEvent(12.0, "control", "service-crash", "upgrade")
        ]

    def test_crash_events_change_digest(self):
        first = FaultInjector(seed=1)
        second = FaultInjector(seed=1)
        first.crash_service(self.FakeSupervisor(), "control", 1.0)
        assert first.event_digest() != second.event_digest()


class TestLoadSurge:
    def test_same_seed_same_arrival_stream(self):
        kwargs = dict(surge_multiplier=4.0, surge_start_s=2.0,
                      surge_end_s=4.0, high_priority_fraction=0.1, seed=42)
        first = LoadSurge(100.0, **kwargs).arrivals(6.0)
        second = LoadSurge(100.0, **kwargs).arrivals(6.0)
        assert first == second
        assert LoadSurge(100.0, **dict(kwargs, seed=43)).arrivals(6.0) != first

    def test_rate_window(self):
        surge = LoadSurge(100.0, surge_multiplier=4.0, surge_start_s=2.0,
                          surge_end_s=4.0)
        assert surge.rate_at(0.0) == 100.0
        assert surge.rate_at(2.0) == 400.0
        assert surge.rate_at(3.999) == 400.0
        assert surge.rate_at(4.0) == 100.0

    def test_arrival_counts_track_the_offered_rate(self):
        surge = LoadSurge(200.0, surge_multiplier=5.0, surge_start_s=5.0,
                          surge_end_s=10.0, seed=7)
        arrivals = surge.arrivals(15.0)
        inside = sum(1 for a in arrivals if 5.0 <= a.time_s < 10.0)
        outside = len(arrivals) - inside
        # ~1000/s for 5 s inside the window, ~200/s for 10 s outside.
        assert 4500 <= inside <= 5500
        assert 1700 <= outside <= 2300
        assert all(0.0 <= a.time_s < 15.0 for a in arrivals)
        assert arrivals == sorted(arrivals, key=lambda a: a.time_s)

    def test_high_priority_fraction_tags_critical_arrivals(self):
        surge = LoadSurge(500.0, high_priority_fraction=0.2, seed=9)
        arrivals = surge.arrivals(10.0)
        critical = sum(1 for a in arrivals if a.priority == 0)
        assert 0.15 <= critical / len(arrivals) <= 0.25
        assert LoadSurge(500.0, seed=9).arrivals(10.0)[0].priority == 1

    def test_surge_window_recorded_as_fault_events(self):
        injector = FaultInjector(seed=1)
        surge = LoadSurge(100.0, surge_multiplier=2.0, surge_start_s=1.0,
                          surge_end_s=9.0, injector=injector, name="storm")
        surge.arrivals(5.0)
        kinds = [(e.kind, e.time_s) for e in injector.events]
        # The end event is clamped to the stream's duration.
        assert kinds == [("load-surge-start", 1.0), ("load-surge-end", 5.0)]

    def test_no_events_without_surge_window(self):
        injector = FaultInjector(seed=1)
        LoadSurge(100.0, injector=injector).arrivals(2.0)
        assert injector.events == []

    def test_validation(self):
        with pytest.raises(ChaosError):
            LoadSurge(0.0)
        with pytest.raises(ChaosError):
            LoadSurge(100.0, surge_multiplier=0.5)
        with pytest.raises(ChaosError):
            LoadSurge(100.0, surge_start_s=2.0, surge_end_s=1.0)
        with pytest.raises(ChaosError):
            LoadSurge(100.0, high_priority_fraction=1.5)
        with pytest.raises(ChaosError):
            LoadSurge(100.0).arrivals(0.0)

    def test_arrival_dataclass_is_frozen(self):
        arrival = Arrival(1.0, priority=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            arrival.time_s = 2.0
