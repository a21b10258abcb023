"""Unit tests for the overload-control toolkit (resilience/overload.py)."""

import pytest

from repro.obs import Telemetry
from repro.resilience.overload import (
    Admission,
    AdmissionVerdict,
    BreakerState,
    CircuitBreaker,
    OverloadError,
    OverloadGuard,
    OverloadRejected,
    RetryBudget,
)


class TestOverloadGuard:
    def test_empty_queue_admits_with_zero_delay(self):
        guard = OverloadGuard(0.01)
        admission = guard.offer(0.0)
        assert admission.admitted
        assert admission.queue_delay_s == 0.0
        assert admission.finish_s == pytest.approx(0.01)

    def test_backlog_is_the_queue_delay(self):
        guard = OverloadGuard(0.01, codel_target_s=None)
        first = guard.offer(0.0)
        second = guard.offer(0.0)
        assert second.queue_delay_s == pytest.approx(0.01)
        assert second.finish_s == pytest.approx(0.02)
        assert first.finish_s == pytest.approx(0.01)

    def test_backlog_drains_as_time_advances(self):
        guard = OverloadGuard(0.01, codel_target_s=None)
        for _ in range(5):
            guard.offer(0.0)
        assert guard.queue_delay_s(0.0) == pytest.approx(0.05)
        assert guard.queue_delay_s(0.03) == pytest.approx(0.02)
        assert guard.queue_delay_s(0.05) == 0.0
        assert guard.queue_depth(0.0) == 5
        assert guard.queue_depth(0.031) == 2
        assert guard.queue_depth(1.0) == 0

    def test_bounded_queue_rejects_overflow(self):
        guard = OverloadGuard(0.01, queue_capacity=3, codel_target_s=None)
        verdicts = [guard.offer(0.0).verdict for _ in range(5)]
        assert verdicts == [AdmissionVerdict.ADMITTED] * 3 + [
            AdmissionVerdict.REJECTED_QUEUE_FULL,
        ] * 2
        assert guard.stats.admitted == 3
        assert guard.stats.rejected_queue_full == 2
        assert guard.stats.offered == 5

    def test_deadline_admission_rejects_unmeetable_work(self):
        guard = OverloadGuard(0.01, codel_target_s=None)
        guard.offer(0.0)  # backlog now 10 ms
        late = guard.offer(0.0, deadline_s=0.015)
        assert late.verdict is AdmissionVerdict.REJECTED_DEADLINE
        # A deadline that covers queue + service is admitted.
        ok = guard.offer(0.0, deadline_s=0.020)
        assert ok.admitted

    def test_codel_sheds_after_sustained_delay(self):
        guard = OverloadGuard(
            0.010, codel_target_s=0.005, codel_interval_s=0.100,
            queue_capacity=None, deadline_admission=False,
        )
        # Build a backlog well above target, then keep offering: shedding
        # must only start once the delay has stayed above target for a
        # full interval.
        for _ in range(20):
            assert guard.offer(0.0).admitted
        early = guard.offer(0.05)       # above target, interval not elapsed
        assert early.admitted
        shed = guard.offer(0.15)        # above target for >= one interval
        assert shed.verdict is AdmissionVerdict.SHED
        assert guard.shed_by_priority == {1: 1}

    def test_codel_spares_critical_priority(self):
        guard = OverloadGuard(
            0.010, codel_target_s=0.005, codel_interval_s=0.100,
            queue_capacity=None, deadline_admission=False,
            critical_priority=0,
        )
        for _ in range(30):
            guard.offer(0.0)
        assert guard.offer(0.15, priority=1).verdict is AdmissionVerdict.SHED
        assert guard.offer(0.15, priority=0).admitted

    def test_codel_resets_when_delay_sinks_under_target(self):
        guard = OverloadGuard(
            0.010, codel_target_s=0.005, codel_interval_s=0.100,
            queue_capacity=None, deadline_admission=False,
        )
        for _ in range(20):
            guard.offer(0.0)
        assert guard.offer(0.15).verdict is AdmissionVerdict.SHED
        # Queue fully drained: delay under target resets the CoDel clock.
        assert guard.offer(0.5).admitted
        assert guard.offer(0.5).admitted

    def test_naive_guard_admits_everything(self):
        guard = OverloadGuard(
            0.01, queue_capacity=None, codel_target_s=None,
            deadline_admission=False,
        )
        verdicts = {guard.offer(0.0).verdict for _ in range(500)}
        assert verdicts == {AdmissionVerdict.ADMITTED}
        assert guard.stats.admitted == 500

    def test_admit_raises_on_refusal(self):
        guard = OverloadGuard(0.01, queue_capacity=1, codel_target_s=None)
        guard.admit(0.0)
        with pytest.raises(OverloadRejected) as excinfo:
            guard.admit(0.0)
        err = excinfo.value
        assert err.verdict is AdmissionVerdict.REJECTED_QUEUE_FULL
        assert err.transient and err.cost_s == 0.0

    def test_overloaded_tracks_codel_target(self):
        guard = OverloadGuard(0.01, codel_target_s=0.005)
        assert not guard.overloaded(0.0)
        guard.offer(0.0)
        guard.offer(0.0)
        assert guard.overloaded(0.0)       # 10 ms backlog > 5 ms target
        assert not guard.overloaded(0.02)  # drained

    def test_naive_guard_reports_overload_past_ten_service_times(self):
        guard = OverloadGuard(
            0.01, queue_capacity=None, codel_target_s=None,
            deadline_admission=False,
        )
        for _ in range(11):
            guard.offer(0.0)
        assert guard.overloaded(0.0)
        assert not guard.overloaded(0.2)

    def test_invalid_parameters_raise(self):
        with pytest.raises(OverloadError):
            OverloadGuard(0.0)
        with pytest.raises(OverloadError):
            OverloadGuard(0.01, queue_capacity=0)
        with pytest.raises(OverloadError):
            OverloadGuard(0.01, codel_target_s=-1.0)
        with pytest.raises(OverloadError):
            OverloadGuard(0.01, codel_interval_s=0.0)

    def test_admission_latency_property(self):
        admission = Admission(
            AdmissionVerdict.ADMITTED, queue_delay_s=0.03,
            service_time_s=0.01, finish_s=0.04,
        )
        assert admission.latency_s == pytest.approx(0.04)

    def test_verdicts_flow_into_metrics(self):
        tel = Telemetry()
        guard = OverloadGuard(
            0.01, name="ps", queue_capacity=1, codel_target_s=None,
            telemetry=tel,
        )
        guard.offer(0.0)
        guard.offer(0.0)
        text = tel.metrics.prometheus_text()
        assert 'overload_admitted_total{service="ps"} 1' in text
        assert 'overload_rejected_queue_full_total{service="ps"} 1' in text
        assert "overload_queue_depth" in text
        assert "overload_queue_delay_seconds" in text


class TestRetryBudget:
    def test_starts_full_and_spends_one_token_per_retry(self):
        budget = RetryBudget(ratio=0.1, capacity=3.0)
        assert budget.try_retry()
        assert budget.try_retry()
        assert budget.try_retry()
        assert not budget.try_retry()
        assert budget.spent == 3
        assert budget.exhausted == 1

    def test_fresh_requests_earn_tokens(self):
        budget = RetryBudget(ratio=0.5, capacity=2.0)
        budget.try_retry()
        budget.try_retry()
        assert not budget.try_retry()
        budget.on_request()
        budget.on_request()
        assert budget.try_retry()

    def test_tokens_cap_at_capacity(self):
        budget = RetryBudget(ratio=1.0, capacity=2.0)
        for _ in range(10):
            budget.on_request()
        assert budget.tokens == 2.0

    def test_steady_state_retry_fraction_is_bounded(self):
        # 1000 requests, each "failing": only ~ratio of them may retry
        # once the initial burst capacity is gone.
        budget = RetryBudget(ratio=0.1, capacity=10.0)
        retries = 0
        for _ in range(1000):
            budget.on_request()
            if budget.try_retry():
                retries += 1
        assert retries <= 0.1 * 1000 + budget.capacity

    def test_invalid_parameters_raise(self):
        with pytest.raises(OverloadError):
            RetryBudget(ratio=-0.1)
        with pytest.raises(OverloadError):
            RetryBudget(capacity=0.0)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=1.0)
        for t in (0.0, 0.1, 0.2):
            assert breaker.allow(t)
            breaker.record_failure(t)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(0.3)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(0.0)
        breaker.record_success(0.1)
        breaker.record_failure(0.2)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_lets_exactly_one_probe_through(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(0.5)
        assert breaker.allow(1.1)          # the probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow(1.2)      # probe outstanding: refused
        breaker.record_success(1.3)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(1.4)

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.1)
        breaker.record_failure(1.2)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(2.0)      # timeout restarts from re-open
        assert breaker.allow(2.3)

    def test_open_intervals_reconstruction(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0)
        breaker.record_failure(0.5)
        breaker.allow(1.6)
        breaker.record_success(1.7)
        breaker.record_failure(3.0)
        assert breaker.open_intervals == [(0.5, 1.6), (3.0, None)]

    def test_transitions_flow_into_metrics(self):
        tel = Telemetry()
        breaker = CircuitBreaker(name="lookup", failure_threshold=1,
                                 reset_timeout_s=1.0, telemetry=tel)
        breaker.record_failure(0.0)
        breaker.allow(1.5)
        breaker.record_success(1.6)
        text = tel.metrics.prometheus_text()
        assert ('overload_breaker_transitions_total'
                '{breaker="lookup",to="open"} 1') in text
        assert ('overload_breaker_transitions_total'
                '{breaker="lookup",to="half-open"} 1') in text
        assert ('overload_breaker_transitions_total'
                '{breaker="lookup",to="closed"} 1') in text

    def test_invalid_parameters_raise(self):
        with pytest.raises(OverloadError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(OverloadError):
            CircuitBreaker(reset_timeout_s=0.0)
