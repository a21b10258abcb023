"""Supervisor lifecycle: crash detection, cold/warm restart, renewals.

These are the assertions the control-chaos-smoke CI job relies on: the
supervisor must detect crashes on its health-check cadence, restart with
deterministic backoff, reconverge strictly faster warm than cold, and
renew certificates through a flaky CA without human intervention.
"""

import pytest

from repro.core.supervisor import (
    ServiceState,
    Supervisor,
    SupervisorError,
)
from repro.netsim.chaos import FaultInjector
from repro.netsim.simulator import Simulator
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork
from repro.scion.topology import GlobalTopology, LinkType

A = IA.parse("71-10")
B = IA.parse("71-20")
C1 = IA.parse("71-1")
C2 = IA.parse("71-2")


def _topology():
    topo = GlobalTopology()
    topo.add_as(C1, is_core=True, name="core1")
    topo.add_as(C2, is_core=True, name="core2")
    topo.add_as(A, name="leafA")
    topo.add_as(B, name="leafB")
    topo.add_link(C1, C2, LinkType.CORE, 0.010, link_name="cc")
    topo.add_link(A, C1, LinkType.PARENT, 0.005, link_name="a-c1")
    topo.add_link(B, C2, LinkType.PARENT, 0.004, link_name="b-c2")
    return topo


def _network(seed=7):
    return ScionNetwork(_topology(), seed=seed)


def _supervisor(network, **kwargs):
    kwargs.setdefault("check_interval_s", 0.5)
    kwargs.setdefault("checkpoint_interval_s", 1.0)
    kwargs.setdefault("beacon_round_s", 0.5)
    kwargs.setdefault("warm_restore_s", 0.05)
    return Supervisor(network, **kwargs)


def _run_until_serving(supervisor, name, start, step=0.5, limit=40):
    """Tick on the grid until ``name`` serves again; return that time."""
    t = start
    for _ in range(limit):
        t = round(t + step, 9)
        supervisor.tick(t)
        if supervisor.is_serving(name, t):
            return t
    raise AssertionError(f"{name} never recovered")


class TestRegistry:
    def test_supervised_units(self):
        supervisor = _supervisor(_network())
        names = supervisor.services()
        assert Supervisor.CONTROL in names
        assert f"ps:{A}" in names and f"ps:{B}" in names
        assert "ca:71" in names

    def test_unknown_service_raises(self):
        supervisor = _supervisor(_network())
        with pytest.raises(SupervisorError):
            supervisor.record("ps:99-1")
        with pytest.raises(SupervisorError):
            supervisor.crash("nonsense", 0.0)

    def test_set_ca_unknown_isd_raises(self):
        supervisor = _supervisor(_network())
        with pytest.raises(SupervisorError):
            supervisor.set_ca(99, object())

    def test_invalid_intervals_raise(self):
        with pytest.raises(SupervisorError):
            _supervisor(_network(), check_interval_s=0.0)
        with pytest.raises(SupervisorError):
            _supervisor(_network(), beacon_round_s=-1.0)


class TestColdRestart:
    def test_crash_loses_state_and_restart_reconverges(self):
        network = _network()
        supervisor = _supervisor(network, warm_restart=False)
        t0 = float(network.timestamp)
        supervisor.tick(t0)
        baseline = len(network.paths(A, B, refresh=True))
        assert baseline > 0

        supervisor.crash(Supervisor.CONTROL, t0 + 1.0)
        rec = supervisor.record(Supervisor.CONTROL)
        assert rec.state is ServiceState.DOWN
        assert network.paths(A, B, refresh=True) == []
        assert not supervisor.lookup(A, B, t0 + 1.0)

        recovered = _run_until_serving(supervisor, Supervisor.CONTROL, t0 + 1.0)
        assert supervisor.stats.cold_restarts == 1
        assert supervisor.stats.rebeacon_rounds >= 1
        assert len(network.paths(A, B, refresh=True)) == baseline
        assert supervisor.lookup(A, B, recovered)
        assert rec.crashed_at < rec.detected_at <= rec.restart_at
        assert rec.restart_at < rec.recovered_at

    def test_crash_is_idempotent_while_down(self):
        network = _network()
        supervisor = _supervisor(network)
        t0 = float(network.timestamp)
        supervisor.crash(Supervisor.CONTROL, t0)
        supervisor.crash(Supervisor.CONTROL, t0 + 0.1)
        assert supervisor.record(Supervisor.CONTROL).crashes == 1
        assert supervisor.stats.crashes == 1


class TestWarmRestart:
    def test_warm_restores_checkpoint_without_rebeaconing(self):
        network = _network()
        supervisor = _supervisor(network, warm_restart=True)
        t0 = float(network.timestamp)
        supervisor.tick(t0)
        assert supervisor.stats.checkpoints == 1
        baseline = len(network.paths(A, B, refresh=True))

        supervisor.crash(Supervisor.CONTROL, t0 + 1.0)
        _run_until_serving(supervisor, Supervisor.CONTROL, t0 + 1.0)
        assert supervisor.stats.warm_restarts == 1
        assert supervisor.stats.cold_restarts == 0
        assert supervisor.stats.rebeacon_rounds == 0
        assert len(network.paths(A, B, refresh=True)) == baseline

    def test_warm_strictly_faster_than_cold(self):
        elapsed = {}
        for warm in (False, True):
            network = _network()
            supervisor = _supervisor(network, warm_restart=warm)
            t0 = float(network.timestamp)
            supervisor.tick(t0)
            supervisor.crash(Supervisor.CONTROL, t0 + 1.0)
            _run_until_serving(supervisor, Supervisor.CONTROL, t0 + 1.0)
            rec = supervisor.record(Supervisor.CONTROL)
            elapsed[warm] = rec.recovered_at - rec.crashed_at
        assert elapsed[True] < elapsed[False]

    def test_warm_falls_back_to_cold_without_checkpoint(self):
        network = _network()
        supervisor = _supervisor(network, warm_restart=True)
        t0 = float(network.timestamp)
        # No tick yet, so no checkpoint exists when the crash lands.
        supervisor.crash(Supervisor.CONTROL, t0)
        _run_until_serving(supervisor, Supervisor.CONTROL, t0)
        assert supervisor.stats.cold_restarts == 1
        assert supervisor.stats.warm_restarts == 0


class TestPathServerRestart:
    def test_single_path_server_crash_is_contained(self):
        network = _network()
        supervisor = _supervisor(network)
        t0 = float(network.timestamp)
        supervisor.tick(t0)
        supervisor.crash(f"ps:{A}", t0 + 1.0)
        assert supervisor.is_serving(Supervisor.CONTROL, t0 + 1.0)
        assert not supervisor.lookup(A, B, t0 + 1.0)
        assert supervisor.lookup(B, A, t0 + 1.0)
        recovered = _run_until_serving(supervisor, f"ps:{A}", t0 + 1.0)
        assert supervisor.lookup(A, B, recovered)

    def test_lookup_availability_tracks_failures(self):
        network = _network()
        supervisor = _supervisor(network)
        t0 = float(network.timestamp)
        supervisor.tick(t0)
        assert supervisor.lookup(A, B, t0)
        supervisor.crash(Supervisor.CONTROL, t0 + 1.0)
        assert not supervisor.lookup(A, B, t0 + 1.0)
        stats = supervisor.stats
        assert stats.lookups == 2 and stats.lookups_failed == 1
        assert stats.lookup_availability == pytest.approx(0.5)


class TestCheckpointCadence:
    def test_checkpoints_follow_interval(self):
        network = _network()
        supervisor = _supervisor(network, checkpoint_interval_s=1.0)
        t0 = float(network.timestamp)
        for i in range(5):
            supervisor.tick(t0 + 0.5 * i)  # ticks at 0, .5, 1, 1.5, 2
        assert supervisor.stats.checkpoints == 3  # at 0, 1, 2

    def test_no_checkpoint_while_control_down(self):
        network = _network()
        supervisor = _supervisor(network, checkpoint_interval_s=0.5)
        t0 = float(network.timestamp)
        supervisor.tick(t0)
        supervisor.crash(Supervisor.CONTROL, t0 + 0.1)
        before = supervisor.stats.checkpoints
        supervisor.tick(t0 + 0.2)  # detected; still down
        assert supervisor.stats.checkpoints == before


class TestCertificateRenewal:
    def test_due_certificate_renews_on_tick(self):
        network = _network()
        supervisor = _supervisor(network)
        t0 = float(network.timestamp)
        trust = network.isd_trust[71]
        service = network.services[A]
        service.certificate = trust.ca.issue_as_certificate(
            str(A), service.signing_key.public, now=t0, lifetime_s=30.0
        )
        old_serial = service.certificate.certificate.serial
        supervisor.tick(t0 + 25.0)  # past 2/3 of the 30 s lifetime
        assert supervisor.stats.renewals == 1
        assert service.certificate.certificate.serial > old_serial
        assert service.certificate_healthy(t0 + 25.0)
        record = supervisor.renewal_log[-1]
        assert record.ok and record.ia == A

    def test_renewal_retries_while_ca_down_then_succeeds(self):
        network = _network()
        events = []
        supervisor = _supervisor(
            network, event_sink=lambda *args: events.append(args)
        )
        t0 = float(network.timestamp)
        trust = network.isd_trust[71]
        service = network.services[A]
        service.certificate = trust.ca.issue_as_certificate(
            str(A), service.signing_key.public, now=t0, lifetime_s=30.0
        )
        supervisor.crash("ca:71", t0 + 24.0)
        supervisor.tick(t0 + 25.0)  # renewal due, CA down: burst exhausts
        assert supervisor.stats.renewals == 0
        assert supervisor.stats.renewal_failures >= 1
        assert any(kind == "renewal-failed" for _, _, kind, _ in events)
        # The supervisor restarts its own CA; renewal then goes through.
        t = t0 + 25.0
        for _ in range(10):
            t = round(t + 0.5, 9)
            supervisor.tick(t)
            if supervisor.stats.renewals:
                break
        assert supervisor.stats.renewals == 1
        assert supervisor.stats.renewal_attempts > supervisor.stats.renewals
        assert service.certificate_healthy(t)

    def test_certificates_never_expire_over_30_days(self):
        """Auto-renewal (§4.5: lifetimes of days) keeps every AS certified
        for a month of 6-hourly health checks with nobody stepping in."""
        network = _network()
        supervisor = _supervisor(network)
        t = float(network.timestamp)
        horizon = t + 30 * 24 * 3600.0
        while t < horizon:
            t += 6 * 3600.0
            supervisor.tick(t)
            health = supervisor.certificate_health(t)
            assert all(health.values()), f"expired at {t}: {health}"
        # 3-day certs renewed at 2/3 lifetime => ~15 renewals per AS.
        for ia in network.services:
            renewed = [r for r in supervisor.renewal_log if r.ia == ia]
            assert len(renewed) >= 10 and all(r.ok for r in renewed)

    def test_certificate_health_feed(self):
        network = _network()
        supervisor = _supervisor(network)
        t0 = float(network.timestamp)
        health = supervisor.certificate_health(t0)
        assert set(health) == set(network.services)
        assert all(health.values())


class TestDeterminism:
    def _event_digest(self, seed):
        network = _network(seed=seed)
        injector = FaultInjector(seed=seed)
        supervisor = _supervisor(network, event_sink=injector.record)
        t0 = float(network.timestamp)
        supervisor.tick(t0)
        injector.crash_service(supervisor, Supervisor.CONTROL, t0 + 1.0)
        t = t0 + 1.0
        for _ in range(10):
            t = round(t + 0.5, 9)
            supervisor.tick(t)
        return injector.event_digest()

    def test_same_seed_same_stream(self):
        assert self._event_digest(3) == self._event_digest(3)

    def test_crash_events_reach_fault_stream(self):
        network = _network()
        injector = FaultInjector(seed=1)
        supervisor = _supervisor(network, event_sink=injector.record)
        t0 = float(network.timestamp)
        supervisor.tick(t0)
        injector.crash_service(supervisor, Supervisor.CONTROL, t0 + 1.0)
        _run_until_serving(supervisor, Supervisor.CONTROL, t0 + 1.0)
        kinds = [event.kind for event in injector.events]
        assert "service-crash" in kinds
        assert "service-restart" in kinds
        assert "service-recovered" in kinds


class TestSimulatorIntegration:
    def test_health_checks_run_on_simulator_time(self):
        network = _network()
        supervisor = _supervisor(network, check_interval_s=0.5)
        t0 = float(network.timestamp)
        sim = Simulator(start_time=t0)
        count = supervisor.schedule_health_checks(sim, t0 + 5.0)
        assert count == 10
        supervisor.crash(Supervisor.CONTROL, t0 + 1.2)
        sim.run(until=t0 + 5.0)
        assert supervisor.stats.health_checks == 10
        assert supervisor.is_serving(Supervisor.CONTROL, t0 + 5.0)
