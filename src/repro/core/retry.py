"""Shared retry policy: exponential backoff with decorrelated jitter.

The deployment story of the paper (Section 5.4) is a catalogue of transient
failures — link outages, flapping testbeds, maintenance windows — and the
end-host stack has to keep working through them.  This module provides the
one retry discipline every client-side component uses: capped exponential
backoff with *decorrelated jitter* (each wait is drawn uniformly from
``[base, 3 * previous_wait]``, capped), a total deadline budget that the
caller charges attempt costs against, and a seeded RNG so simulated runs
are reproducible.

Time here is *simulated* time: nothing sleeps.  A :class:`RetrySchedule`
hands out backoff durations and tracks the elapsed budget; callers add the
waits (and their own per-attempt costs) to whatever clock they maintain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import ReproError


class RetryError(ReproError):
    """Raised by :meth:`RetryPolicy.run` when every attempt failed.

    ``last`` carries the final underlying exception; ``attempts`` says how
    many were made before giving up.
    """

    def __init__(self, message: str, last: Optional[BaseException], attempts: int):
        super().__init__(message)
        self.last = last
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry discipline shared across the end-host stack.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (so ``1`` disables retries).
    base_delay_s:
        Lower bound of every backoff draw.
    max_delay_s:
        Upper cap on any single backoff.
    deadline_s:
        Total budget across backoffs *and* caller-charged attempt costs;
        ``None`` means unlimited.
    attempt_timeout_s:
        Advisory per-attempt timeout; callers that model request latency
        clamp an attempt's cost to this before charging it.
    seed:
        Seed for the jitter RNG; schedules created from the same policy
        produce identical backoff sequences.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    deadline_s: Optional[float] = None
    attempt_timeout_s: Optional[float] = None
    seed: int = 0x5E77

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s <= 0:
            raise ValueError("base_delay_s must be positive")
        if self.max_delay_s < self.base_delay_s:
            raise ValueError("max_delay_s must be >= base_delay_s")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if self.attempt_timeout_s is not None and self.attempt_timeout_s <= 0:
            raise ValueError("attempt_timeout_s must be positive when set")

    def schedule(self) -> "RetrySchedule":
        """A fresh stateful schedule (own RNG stream, zero elapsed)."""
        return RetrySchedule(self)

    def clamp_cost(self, cost_s: float) -> float:
        """An attempt's chargeable cost, bounded by the per-attempt timeout."""
        if self.attempt_timeout_s is None:
            return cost_s
        return min(cost_s, self.attempt_timeout_s)

    def run(
        self,
        fn: Callable[[], object],
        retryable: Callable[[BaseException], bool] = lambda exc: True,
    ) -> "RetryOutcome":
        """Call ``fn`` under this policy; convenience for non-latency callers.

        ``fn`` raising a :class:`~repro.errors.ReproError` for which
        ``retryable`` returns True triggers a backoff and another attempt; a
        non-retryable one, or any other exception, propagates immediately.
        Exceptions may carry a ``cost_s`` float attribute which is charged
        against the deadline budget.
        """
        schedule = self.schedule()
        failures: List[str] = []
        last: Optional[BaseException] = None
        while True:
            try:
                value = fn()
            except ReproError as exc:  # classified below
                if not retryable(exc):
                    raise
                last = exc
                failures.append(str(exc))
                schedule.charge(self.clamp_cost(getattr(exc, "cost_s", 0.0)))
                if schedule.next_backoff_s() is None:
                    raise RetryError(
                        f"gave up after {schedule.attempts_started} attempts: {exc}",
                        last,
                        schedule.attempts_started,
                    ) from exc
                continue
            return RetryOutcome(
                value=value,
                attempts=schedule.attempts_started,
                backoff_s=schedule.backoff_total_s,
                elapsed_s=schedule.elapsed_s,
                failures=tuple(failures),
            )


@dataclass(frozen=True)
class RetryOutcome:
    """Result of :meth:`RetryPolicy.run`: value plus retry accounting."""

    value: object
    attempts: int
    backoff_s: float
    elapsed_s: float
    failures: Tuple[str, ...] = ()


class RetrySchedule:
    """One execution of a :class:`RetryPolicy`: RNG stream + budget state.

    Usage: make an attempt, charge its cost via :meth:`charge`, and on
    failure ask :meth:`next_backoff_s` — it returns the wait before the
    next attempt, or ``None`` when attempts or the deadline are exhausted
    (callers then surface the last error).
    """

    def __init__(self, policy: RetryPolicy):
        self.policy = policy
        self._rng = random.Random(policy.seed)
        self._prev_backoff_s = policy.base_delay_s
        self.attempts_started = 1
        self.backoff_total_s = 0.0
        self.elapsed_s = 0.0

    def charge(self, cost_s: float) -> None:
        """Charge an attempt's (clamped) cost against the deadline budget."""
        if cost_s < 0:
            raise ValueError("cost must be non-negative")
        self.elapsed_s += cost_s

    def next_backoff_s(self) -> Optional[float]:
        """Backoff before the next attempt, or None when out of budget.

        Decorrelated jitter: each wait is uniform in ``[base, 3 * prev]``,
        capped at ``max_delay_s`` — the spread de-synchronizes retrying
        clients while still growing roughly exponentially.
        """
        policy = self.policy
        if self.attempts_started >= policy.max_attempts:
            return None
        backoff = min(
            policy.max_delay_s,
            self._rng.uniform(policy.base_delay_s, self._prev_backoff_s * 3),
        )
        if (
            policy.deadline_s is not None
            # ``>=``, not ``>``: a jittered backoff landing exactly on the
            # boundary leaves zero budget for the attempt it precedes, so
            # scheduling it would start an attempt past the deadline.
            and self.elapsed_s + self.backoff_total_s + backoff >= policy.deadline_s
        ):
            return None
        self._prev_backoff_s = backoff
        self.backoff_total_s += backoff
        self.attempts_started += 1
        return backoff
