"""The overload experiment: acceptance gates and seeded reproducibility.

The experiment runs and digests the protected stack only; the naive stack
(``naive_storms``, ``TestSloSnapshot``) is the reference arm in
``tests/reference_arms.py``, driven by the same seeded storm.
"""

import pytest

from repro.experiments.overload import (
    DEADLINE_S,
    SWEEP_MULTIPLES,
    run,
    run_storms,
    telemetry_snapshot,
)
from repro.experiments.registry import run_experiment
from tests.reference_arms import naive_slo_snapshot, run_naive_storms


@pytest.fixture(scope="module")
def storms():
    return run_storms(fast=True)


@pytest.fixture(scope="module")
def naive_storms():
    return run_naive_storms()


class TestAcceptance:
    def test_protected_goodput_at_4x_offered_load(self, storms, naive_storms):
        index = SWEEP_MULTIPLES.index(4.0)
        naive = naive_storms["sweep"][index]["goodput_rps"]
        protected = storms["sweep"][index]["goodput_rps"]
        assert protected >= 2 * max(naive, 1.0)

    def test_protected_recovers_to_baseline_after_surge(self, storms):
        protected = storms["protected"]
        assert protected.recovered_at_s is not None
        assert protected.recovered_at_s <= 2.0
        assert protected.post_surge_fraction >= 0.9

    def test_naive_stack_is_metastable(self, naive_storms):
        naive = naive_storms["naive"]
        # Goodput stays depressed after the surge ends, sustained by the
        # unbudgeted retries — the metastable signature.
        assert naive.recovered_at_s is None
        assert naive.baseline_rps == 246.0
        assert naive.post_surge_fraction == 0
        assert naive.retries_sent == 26661
        assert naive.retries_sent > naive.offered  # retry amplification

    def test_admitted_p99_within_deadline_for_protected(
        self, storms, naive_storms
    ):
        assert storms["protected"].p99_admitted_latency_s <= DEADLINE_S
        # The naive stack serves uselessly late instead of refusing.
        assert naive_storms["naive"].p99_admitted_latency_s == pytest.approx(
            56.7, abs=0.05
        )

    def test_critical_priority_never_shed(self, storms):
        assert storms["protected"].shed_by_priority.get(0, 0) == 0
        assert storms["protected"].shed_by_priority.get(1, 0) > 0

    def test_partition_invariant_holds_under_storm(self, storms, naive_storms):
        for outcome in (naive_storms["naive"], storms["protected"]):
            stats = outcome.stats
            assert (
                stats["admitted"] + stats["shed"]
                + stats["rejected_queue_full"] + stats["rejected_deadline"]
                == stats["offered"]
            )

    def test_health_reports_overloaded_mid_surge(self, storms):
        assert storms["protected"].health_status == "OVERLOADED"
        assert storms["protected"].overloaded_services

    def test_health_reports_naive_overloaded_mid_surge(self, naive_storms):
        assert naive_storms["naive"].health_status == "OVERLOADED"

    def test_protected_stack_serves_stale_instead_of_retrying(self, storms):
        protected = storms["protected"]
        assert protected.stale_served > 0
        assert protected.retries_sent < protected.offered * 0.01
        assert protected.breaker_transitions > 0


class TestReproducibility:
    def test_same_seed_same_digest(self, storms):
        again = run_storms(fast=True)
        assert again["digest"] == storms["digest"]
        assert again["protected"].bins == storms["protected"].bins

    def test_naive_reference_arm_is_deterministic(self, naive_storms):
        assert run_naive_storms()["naive"].bins == naive_storms["naive"].bins

    def test_protected_arm_is_what_it_was_beside_the_naive_arm(self, storms):
        """Literals recorded while ``run_storms`` still ran the naive storm
        first on the shared network and injector, and swept through
        ``_run_constant``: dropping both moved nothing in this arm."""
        protected = storms["protected"]
        assert protected.bins == [
            221, 272, 248, 243, 267, 303, 278, 241, 265,
            260, 259, 278, 241, 273, 242, 273, 255, 252,
        ]
        assert protected.stats == {
            "admitted": 4672, "shed": 47, "rejected_queue_full": 0,
            "rejected_deadline": 1107, "offered": 5826,
        }
        assert protected.shed_by_priority == {1: 47}
        assert [
            (p["offered_rps"], round(p["goodput_rps"], 2),
             round(p["on_time_fraction"], 9))
            for p in storms["sweep"]
        ] == [
            (250.0, 249.0, 1.0),
            (500.0, 327.67, 0.650132275),
            (1000.0, 227.0, 0.227683049),
            (2000.0, 215.67, 0.108103592),
            (4000.0, 129.67, 0.032279479),
        ]
        assert [
            (e.time_s, e.target, e.kind) for e in storms["injector"].events
        ] == [
            (4.0, "protected-storm", "load-surge-start"),
            (7.0, "protected-storm", "load-surge-end"),
        ]

    def test_different_seed_different_digest(self, storms):
        other = run_storms(fast=True, seed=18)
        assert other["digest"] != storms["digest"]


class TestReport:
    def test_run_produces_report_with_digest(self):
        result = run(fast=True)
        assert result.exp_id == "overload"
        assert len(result.comparisons) == 4
        assert "digest" in result.details
        assert "OVERLOADED" in result.details

    def test_registered_in_registry(self):
        result = run_experiment("overload", fast=True)
        assert result.exp_id == "overload"


class TestTelemetrySnapshot:
    def test_all_overload_decisions_visible_in_metrics(self):
        snap = telemetry_snapshot()
        prom = snap["prometheus"]
        for family in (
            "overload_admitted_total",
            "overload_shed_total",
            "overload_rejected_deadline_total",
            "overload_queue_depth",
            "overload_queue_delay_seconds",
            "overload_breaker_transitions_total",
            "overload_retries_spent_total",
            "overload_retry_budget_exhausted_total",
        ):
            assert family in prom, family
        assert snap["health_status"] == "OVERLOADED"
        assert snap["overloaded_services"]


class TestSloSnapshot:
    """The SLO burn-rate engine watching the naive arm (acceptance
    criterion: >= 1 burn-rate alert in the EventLog during the storm)."""

    @pytest.fixture(scope="class")
    def slo_snap(self):
        return naive_slo_snapshot(seed=17)

    def test_burn_rate_alert_fires_during_naive_storm(self, slo_snap):
        assert len(slo_snap["alerts"]) >= 1
        alert = slo_snap["alerts"][0]
        assert alert.kind == "slo-burn-rate"
        assert alert.source == "slo"
        assert "lookup-latency" in alert.target
        assert (alert.time_s, alert.severity) == (1.25, "critical")

    def test_metastable_alert_never_clears(self, slo_snap):
        """The naive stack never recovers after the surge, and neither
        does the pager: no burn-clear events by the end of the run."""
        assert slo_snap["clears"] == []
        assert slo_snap["status"]["active"]

    def test_alert_stream_deterministic_across_runs(self, slo_snap):
        again = naive_slo_snapshot(seed=17)

        def stream(snap):
            return [
                (e.time_s, e.kind, e.target, e.detail, e.severity)
                for e in snap["alerts"] + snap["clears"]
            ]

        assert stream(again) == stream(slo_snap)

    def test_slo_sampling_leaves_pinned_digest_unchanged(self, storms):
        """Running the watched reference arm beside the experiment (shared
        process, patched-in nothing) must not move the pinned digest."""
        naive_slo_snapshot(seed=17)
        again = run_storms(fast=True)
        assert again["digest"] == storms["digest"]
