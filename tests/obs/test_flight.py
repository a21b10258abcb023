"""Tests for the crash flight recorder: bounded rings, hook chaining,
supervisor triggers, and byte-identical dumps across same-seed runs."""

import json

from repro.core.supervisor import Supervisor
from repro.harness.crucible import generate_schedule, run_schedule
from repro.obs import (
    FlightRecorder,
    Telemetry,
    flight_digest,
    save_flight,
)
from repro.scion.network import ScionNetwork
from tests.conftest import make_diamond_topology


def _attached(capacity=8):
    tel = Telemetry()
    return FlightRecorder(capacity=capacity).attach(tel), tel


class TestRings:
    def test_event_ring_bounded_keeps_most_recent(self):
        flight, tel = _attached(capacity=8)
        for i in range(20):
            tel.events.record(float(i), "test", "tick", target=str(i))
        artifact = flight.dump("test", now=20.0)
        events = artifact["events"]
        assert len(events) == 8
        assert [e["target"] for e in events] == [
            str(i) for i in range(12, 20)
        ]

    def test_metric_delta_ring(self):
        flight, tel = _attached(capacity=4)
        counter = tel.metrics.counter("widgets_total", labels={"kind": "a"})
        gauge = tel.metrics.gauge("depth")
        for i in range(6):
            counter.inc(i + 1)
            gauge.set(float(i))              # gauges are skipped in deltas
            flight.tick(now=float(i))
        artifact = flight.dump("test", now=6.0)
        deltas = artifact["metric_deltas"]
        assert len(deltas) == 4              # ring capacity
        assert deltas[-1]["deltas"] == {'widgets_total{kind=a}': 6.0}
        assert all("depth" not in d["deltas"] for d in deltas)

    def test_tick_without_changes_records_nothing(self):
        flight, tel = _attached()
        tel.metrics.counter("quiet_total")
        flight.tick(1.0)
        flight.tick(2.0)
        assert flight.dump("test", 2.0)["metric_deltas"] == []

    def test_triggers_unbounded(self):
        flight, _ = _attached(capacity=2)
        for i in range(10):
            flight.trigger(float(i), "invariant", f"inv-{i}")
        assert len(flight.dump("test", 10.0)["triggers"]) == 10


class TestWiring:
    def test_attach_sets_bundle_attribute(self):
        flight, tel = _attached()
        assert tel.flight is flight
        assert flight.telemetry is tel

    def test_on_record_hook_chains_previous_subscriber(self):
        tel = Telemetry()
        seen = []
        tel.events.on_record = seen.append
        flight = FlightRecorder().attach(tel)
        event = tel.events.record(1.0, "test", "tick")
        assert seen == [event]
        assert flight.dump("t", 1.0)["events"][0]["kind"] == "tick"

    def test_supervisor_crash_and_detection_trigger(self):
        tel = Telemetry()
        flight = FlightRecorder().attach(tel)
        network = ScionNetwork(make_diamond_topology(), seed=3, telemetry=tel)
        supervisor = Supervisor(network, telemetry=tel)
        supervisor.crash("control", now=1.0)
        supervisor.tick(now=1.5)
        kinds = [(t["kind"], t["detail"])
                 for t in flight.dump("crash", 2.0)["triggers"]]
        assert ("service-crash", "control") in kinds
        assert ("crash-detected", "control") in kinds

    def test_supervisor_without_flight_unaffected(self):
        network = ScionNetwork(make_diamond_topology(), seed=3,
                               telemetry=Telemetry())
        supervisor = Supervisor(network)
        supervisor.crash("control", now=1.0)
        supervisor.tick(now=1.5)
        assert supervisor.stats.crashes == 1


class TestDumps:
    def test_digest_covers_body_not_itself(self):
        flight, tel = _attached()
        tel.events.record(1.0, "test", "tick")
        artifact = flight.dump("test", 1.0)
        assert artifact["digest"] == flight_digest(artifact)
        mutated = dict(artifact, reason="other")
        assert flight_digest(mutated) != artifact["digest"]

    def test_save_flight_roundtrip(self, tmp_path):
        flight, tel = _attached()
        tel.events.record(1.0, "test", "tick")
        artifact = flight.dump("test", 1.0)
        path = tmp_path / "flight.json"
        save_flight(path, artifact)
        loaded = json.loads(path.read_text())
        assert loaded == artifact
        assert flight_digest(loaded) == loaded["digest"]

    def test_context_included(self):
        flight, _ = _attached()
        artifact = flight.dump("test", 1.0, context={"bug": "shed-critical"})
        assert artifact["context"] == {"bug": "shed-critical"}


class TestCrucibleDeterminism:
    def test_same_seed_runs_dump_byte_identical_black_boxes(self):
        artifacts = []
        for _ in range(2):
            schedule = generate_schedule(
                seed=11, topology="mesh5", n_faults=6,
                ensure_kind="load-surge",
            )
            result = run_schedule(
                schedule, bug="shed-critical",
                flight=FlightRecorder(capacity=64),
            )
            assert result.flight_artifact is not None
            artifacts.append(result.flight_artifact)
        first = json.dumps(artifacts[0], sort_keys=True)
        second = json.dumps(artifacts[1], sort_keys=True)
        assert first == second
        assert artifacts[0]["digest"] == artifacts[1]["digest"]

    def test_clean_run_dumps_nothing(self):
        schedule = generate_schedule(seed=11, topology="mesh5", n_faults=4)
        result = run_schedule(schedule, flight=FlightRecorder())
        assert result.ok
        assert result.flight_artifact is None

    def test_violation_context_names_invariants(self):
        schedule = generate_schedule(
            seed=11, topology="mesh5", n_faults=6, ensure_kind="load-surge"
        )
        result = run_schedule(
            schedule, bug="shed-critical", flight=FlightRecorder()
        )
        context = result.flight_artifact["context"]
        assert context["bug"] == "shed-critical"
        assert "codel-spares-critical" in context["violated"]
        assert context["fault_digest"] == result.fault_digest
        assert context["schedule_digest"] == schedule.digest()
