"""Tests for the core package: deployment, monitoring, survey."""

import pytest

from repro.core.deployment import (
    DEPLOYMENT_TIMELINE,
    DeploymentRecord,
    EffortModel,
    learning_curve,
)
from repro.core.monitoring import ConnectivityMonitor
from repro.core.survey import OPERATOR_SURVEY, SurveyAnalysis
from repro.netsim.simulator import Simulator
from repro.scion.addr import IA
from repro.sciera.build import build_sciera


@pytest.fixture(scope="module")
def world():
    return build_sciera(seed=31)


class TestDeploymentEffort:
    def test_timeline_ordered_fields(self):
        for record in DEPLOYMENT_TIMELINE:
            assert record.observed_effort > 0
            assert record.vlan_parties >= 1
            assert record.deployment_kind in ("core", "nren", "institution")

    def test_learning_curve_negative_correlation(self):
        curve = learning_curve()
        assert curve["time_effort_correlation"] < -0.3
        assert curve["second_half_mean_effort"] < curve["first_half_mean_effort"]

    def test_model_predicts_observed_effort(self):
        assert EffortModel().correlation_with_observed() > 0.7

    def test_first_deployment_of_kind_costs_more(self):
        model = EffortModel()
        record = DEPLOYMENT_TIMELINE[0]
        assert model.predict(record, prior_same_kind=0) > model.predict(
            record, prior_same_kind=5
        )

    def test_reused_circuits_cheaper(self):
        model = EffortModel()
        base = dict(ia="x", name="x", month="2024-01", observed_effort=1.0,
                    new_hardware=False, vlan_parties=3,
                    deployment_kind="institution")
        fresh = DeploymentRecord(reused_circuits=False, **base)
        reused = DeploymentRecord(reused_circuits=True, **base)
        assert model.predict(reused, 0) < model.predict(fresh, 0)


class TestMonitoring:
    def test_alert_on_connectivity_loss_and_restore(self, world):
        network = world.network
        monitor = ConnectivityMonitor(
            network,
            vantage=IA.parse("71-20965"),
            targets=[IA.parse("71-2:0:5c")],
            probe_interval_s=60.0,
        )
        sim = Simulator()
        monitor.start(sim)
        sim.run(until=120.0)
        assert monitor.alerts == []
        # Sever UFMS entirely.
        network.set_link_state("ufms-rnp-1", False)
        network.set_link_state("ufms-rnp-2", False)
        sim.run(until=300.0)
        kinds = [a.kind for a in monitor.alerts]
        assert kinds == ["connectivity-lost"]
        assert monitor.currently_down == ["71-2:0:5c"]
        assert monitor.alerts[0].email_to.startswith("noc@")
        network.set_link_state("ufms-rnp-1", True)
        network.set_link_state("ufms-rnp-2", True)
        sim.run(until=500.0)
        assert [a.kind for a in monitor.alerts] == [
            "connectivity-lost", "connectivity-restored",
        ]

    def test_no_duplicate_alerts(self, world):
        network = world.network
        monitor = ConnectivityMonitor(
            network, vantage=IA.parse("71-20965"),
            targets=[IA.parse("71-37288")], probe_interval_s=30.0,
        )
        sim = Simulator()
        monitor.start(sim)
        network.set_link_state("wacren-geant-1", False)
        network.set_link_state("wacren-geant-2", False)
        sim.run(until=600.0)
        network.set_link_state("wacren-geant-1", True)
        network.set_link_state("wacren-geant-2", True)
        assert len([a for a in monitor.alerts if a.kind == "connectivity-lost"]) == 1

    def test_invalid_interval(self, world):
        with pytest.raises(ValueError):
            ConnectivityMonitor(world.network, IA.parse("71-20965"), [],
                                probe_interval_s=0)

    def test_invalid_flap_damping(self, world):
        with pytest.raises(ValueError):
            ConnectivityMonitor(world.network, IA.parse("71-20965"), [],
                                flap_damping_rounds=0)

    def test_flap_damping_suppresses_single_bad_round(self, world):
        network = world.network
        monitor = ConnectivityMonitor(
            network, vantage=IA.parse("71-20965"),
            targets=[IA.parse("71-2:0:5c")], probe_interval_s=60.0,
            flap_damping_rounds=3,
        )
        sim = Simulator()
        monitor.start(sim)
        try:
            # One lossy round (down at t=60 only), then recovery.
            sim.run(until=30.0)
            network.set_link_state("ufms-rnp-1", False)
            network.set_link_state("ufms-rnp-2", False)
            sim.run(until=90.0)
            network.set_link_state("ufms-rnp-1", True)
            network.set_link_state("ufms-rnp-2", True)
            sim.run(until=400.0)
            assert monitor.alerts == []          # damped: no page
            # A real outage spanning 3 rounds does alert.
            network.set_link_state("ufms-rnp-1", False)
            network.set_link_state("ufms-rnp-2", False)
            sim.run(until=400.0 + 4 * 60.0)
            assert [a.kind for a in monitor.alerts] == ["connectivity-lost"]
            # Restores are never damped: good news on the next round.
            network.set_link_state("ufms-rnp-1", True)
            network.set_link_state("ufms-rnp-2", True)
            sim.run(until=400.0 + 6 * 60.0)
            assert [a.kind for a in monitor.alerts] == [
                "connectivity-lost", "connectivity-restored",
            ]
        finally:
            monitor.stop()
            network.set_link_state("ufms-rnp-1", True)
            network.set_link_state("ufms-rnp-2", True)

    def test_stop_tears_down_probe_loop(self, world):
        monitor = ConnectivityMonitor(
            world.network, vantage=IA.parse("71-20965"),
            targets=[IA.parse("71-2:0:5c")], probe_interval_s=60.0,
        )
        sim = Simulator()
        monitor.start(sim)
        sim.run(until=130.0)
        probes_at_stop = monitor.probes_sent
        assert probes_at_stop > 0
        monitor.stop()
        sim.run(until=1000.0)
        assert monitor.probes_sent == probes_at_stop
        # The simulator drained: no orphaned reschedule timers remain.
        assert sim.pending_events == 0


class TestSurvey:
    def test_eight_respondents(self):
        assert len(OPERATOR_SURVEY) == 8

    def test_every_paper_percentage_exact(self):
        headline = SurveyAnalysis().headline()
        expected = {
            "over_decade_experience": 50.0,
            "setup_within_one_month": 37.5,
            "setup_up_to_six_months": 50.0,
            "deployed_without_vendor_support": 62.5,
            "hardware_below_20k": 75.0,
            "no_license_cost": 62.5,
            "no_extra_hiring": 75.0,
            "opex_comparable_or_lower": 75.0,
            "workload_below_10pct": 87.5,
            "vendor_contacts_below_3": 62.5,
        }
        assert headline == expected

    def test_cost_driver_shares(self):
        drivers = SurveyAnalysis().cost_driver_shares()
        assert drivers["hardware-maintenance"] == 62.5
        assert drivers["staff-workload"] == 50.0
        assert drivers["monitoring-troubleshooting"] == 25.0
        assert drivers["power"] == 12.5

    def test_role_split_half_half(self):
        assert SurveyAnalysis().role_split() == {
            "engineer": 50.0, "researcher": 50.0,
        }

    def test_personnel_cost(self):
        assert SurveyAnalysis().typical_personnel_cost_usd() == 20_000
