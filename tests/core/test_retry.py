"""Tests for the shared retry policy (backoff, budgets, determinism)."""

import pytest

from repro.errors import ReproError
from repro.resilience.retry import RetryError, RetryPolicy


class TransientFailure(ReproError):
    def __init__(self, message="boom", cost_s=0.0):
        super().__init__(message)
        self.cost_s = cost_s


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout_s=-1.0)

    def test_clamp_cost(self):
        assert RetryPolicy().clamp_cost(99.0) == 99.0
        assert RetryPolicy(attempt_timeout_s=0.5).clamp_cost(99.0) == 0.5
        assert RetryPolicy(attempt_timeout_s=0.5).clamp_cost(0.1) == 0.1


class TestRetrySchedule:
    def test_backoffs_within_jitter_bounds(self):
        policy = RetryPolicy(max_attempts=50, base_delay_s=0.01,
                             max_delay_s=0.2)
        schedule = policy.schedule()
        prev = policy.base_delay_s
        while True:
            backoff = schedule.next_backoff_s()
            if backoff is None:
                break
            assert policy.base_delay_s <= backoff <= policy.max_delay_s
            assert backoff <= max(3 * prev, policy.base_delay_s)
            prev = backoff

    def test_same_seed_same_sequence(self):
        policy = RetryPolicy(max_attempts=10, seed=123)
        first = [policy.schedule().next_backoff_s() for _ in range(1)]
        a = policy.schedule()
        b = policy.schedule()
        seq_a = [a.next_backoff_s() for _ in range(9)]
        seq_b = [b.next_backoff_s() for _ in range(9)]
        assert seq_a == seq_b
        assert first[0] == seq_a[0]

    def test_different_seed_different_sequence(self):
        seq = lambda s: [RetryPolicy(max_attempts=10, seed=s).schedule()
                         .next_backoff_s() for _ in range(3)]
        assert seq(1) != seq(2)

    def test_max_attempts_exhausts(self):
        schedule = RetryPolicy(max_attempts=3).schedule()
        assert schedule.next_backoff_s() is not None
        assert schedule.next_backoff_s() is not None
        assert schedule.next_backoff_s() is None
        assert schedule.attempts_started == 3

    def test_single_attempt_never_backs_off(self):
        assert RetryPolicy(max_attempts=1).schedule().next_backoff_s() is None

    def test_deadline_stops_schedule(self):
        policy = RetryPolicy(max_attempts=100, base_delay_s=0.05,
                             max_delay_s=0.05, deadline_s=0.12)
        schedule = policy.schedule()
        waits = []
        while True:
            backoff = schedule.next_backoff_s()
            if backoff is None:
                break
            waits.append(backoff)
        # Two 50ms waits fit in 120ms; a third would overshoot.
        assert len(waits) == 2
        assert schedule.backoff_total_s <= policy.deadline_s

    def test_backoff_on_exact_deadline_boundary_is_refused(self):
        # Regression: base == max pins the jitter, so every draw is
        # exactly 0.04 s; after two waits (0.08 s) the third lands the
        # total exactly on the 0.12 s deadline.  The old ``>`` comparison
        # scheduled that attempt with zero remaining budget — it must be
        # refused instead.
        policy = RetryPolicy(max_attempts=10, base_delay_s=0.04,
                             max_delay_s=0.04, deadline_s=0.12)
        schedule = policy.schedule()
        assert schedule.next_backoff_s() == pytest.approx(0.04)
        assert schedule.next_backoff_s() == pytest.approx(0.04)
        assert schedule.next_backoff_s() is None
        assert schedule.backoff_total_s < policy.deadline_s

    def test_charged_costs_consume_deadline(self):
        policy = RetryPolicy(max_attempts=100, base_delay_s=0.05,
                             max_delay_s=0.05, deadline_s=0.12)
        schedule = policy.schedule()
        schedule.charge(0.10)
        assert schedule.next_backoff_s() is None

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().schedule().charge(-1.0)


class TestRetryRun:
    def test_success_first_try(self):
        outcome = RetryPolicy().run(lambda: 42)
        assert outcome.value == 42
        assert outcome.attempts == 1
        assert outcome.backoff_s == 0.0
        assert outcome.failures == ()

    def test_retries_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFailure(cost_s=0.01)
            return "ok"

        outcome = RetryPolicy(max_attempts=5).run(flaky)
        assert outcome.value == "ok"
        assert outcome.attempts == 3
        assert len(outcome.failures) == 2
        assert outcome.backoff_s > 0.0
        assert outcome.elapsed_s == pytest.approx(0.02)

    def test_exhaustion_raises_retry_error(self):
        def always_fail():
            raise TransientFailure("nope")

        with pytest.raises(RetryError) as excinfo:
            RetryPolicy(max_attempts=3).run(always_fail)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last, TransientFailure)

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def fail_hard():
            calls.append(1)
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5).run(
                fail_hard,
                retryable=lambda exc: not isinstance(exc, ValueError),
            )
        assert len(calls) == 1

    def test_attempt_timeout_clamps_charged_cost(self):
        def expensive_failure():
            raise TransientFailure(cost_s=100.0)

        policy = RetryPolicy(max_attempts=3, attempt_timeout_s=0.01,
                             deadline_s=10.0)
        with pytest.raises(RetryError) as excinfo:
            policy.run(expensive_failure)
        # All 3 attempts ran: clamped costs (3 x 10ms) fit the deadline,
        # where unclamped ones (100s) would have aborted after the first.
        assert excinfo.value.attempts == 3
