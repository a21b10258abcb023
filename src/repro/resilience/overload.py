"""Overload control: bounded queues, admission, retry budgets, breakers.

The paper's deployment lessons (Hercules/LightningFilter queueing, the
dispatcher bottleneck of Section 4.8) are about what happens when demand
exceeds capacity — and "SCION Five Years Later" stresses that control-plane
services must survive *surging* load, not just faults.  This module is the
one overload discipline every request-serving layer uses:

* :class:`OverloadGuard` — a bounded FIFO/priority request queue modeled
  analytically on simulated time: each admitted request occupies the
  server for ``service_time_s``, the backlog drains as the clock advances,
  and the current backlog *is* the queueing delay the next request would
  see.  On top of the queue sit three protections, each individually
  optional:

  - **bounded queue** — arrivals beyond ``queue_capacity`` waiting
    requests are rejected (``REJECTED_QUEUE_FULL``);
  - **deadline-aware admission** — work whose remaining deadline budget
    cannot cover the predicted queueing delay plus service time is
    rejected up front (``REJECTED_DEADLINE``) instead of being served
    late and thrown away;
  - **CoDel-style shedding** — once the queueing delay has stayed above
    ``codel_target_s`` for a full ``codel_interval_s``, sheddable
    arrivals are dropped (``SHED``) until the delay sinks back under the
    target.  Arrivals with ``priority <= critical_priority`` bypass
    shedding (graceful degradation: revocations and renewals keep
    flowing while bulk lookups are shed).

* :class:`RetryBudget` — a token bucket shared per client: every fresh
  request earns ``ratio`` tokens, every retry spends one.  When the
  bucket is empty the client must *not* retry (it serves stale or fails)
  — this is what stops a brownout from amplifying into a retry storm.

* :class:`CircuitBreaker` — closed → open → half-open on simulated time.
  After ``failure_threshold`` consecutive failures the breaker opens and
  every request is refused locally (no load reaches the struggling
  server) until ``reset_timeout_s`` has elapsed; then exactly one probe
  is let through, and its outcome closes or re-opens the breaker.

Admission verdicts, shed counts (by priority), queue depth and delay, and
breaker transitions flow through the ``obs`` registry when a
:class:`~repro.obs.Telemetry` is attached, so a status page can report
OVERLOADED before anything is DOWN (the budget keeps plain ``spent`` and
``exhausted`` counts).
All components are strictly opt-in (``.guard`` is None until a caller
assigns one), so legacy experiments and their seeded digests are
byte-identical unless a caller wires a guard in.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs import CounterBackedStats, Telemetry, resolve


class OverloadError(ReproError):
    """Raised for invalid overload-control configuration."""


class OverloadRejected(ReproError):
    """A request was refused by admission control (shed or rejected).

    ``transient`` marks the refusal retry-worthy *in principle* — the
    server is overloaded, not broken — but well-behaved clients gate the
    retry through a :class:`RetryBudget` or serve stale instead
    (:meth:`repro.endhost.daemon.Daemon.lookup` does the latter).
    ``cost_s`` is 0: rejecting early is cheap, which is the whole point.
    """

    transient = True
    cost_s = 0.0

    def __init__(self, message: str, verdict: "AdmissionVerdict",
                 service: str = "", queue_delay_s: float = 0.0):
        super().__init__(message)
        self.verdict = verdict
        self.service = service
        self.queue_delay_s = queue_delay_s


class AdmissionVerdict(enum.Enum):
    """What the guard decided for one offered request."""

    ADMITTED = "admitted"
    #: CoDel shed: queue delay stayed above target for a full interval.
    SHED = "shed-codel"
    #: Bounded queue overflow: too many requests already waiting.
    REJECTED_QUEUE_FULL = "rejected-queue-full"
    #: Deadline admission: predicted wait + service exceeds the budget.
    REJECTED_DEADLINE = "rejected-deadline"


@dataclass(frozen=True)
class Admission:
    """One admission decision, with the modeled timing for admitted work."""

    verdict: AdmissionVerdict
    #: Backlog ahead of this request at arrival (its queueing delay).
    queue_delay_s: float = 0.0
    service_time_s: float = 0.0
    #: When the request finishes service (admitted requests only).
    finish_s: float = 0.0
    priority: int = 1

    @property
    def admitted(self) -> bool:
        return self.verdict is AdmissionVerdict.ADMITTED

    @property
    def latency_s(self) -> float:
        """Queueing delay plus service time (admitted requests only)."""
        return self.queue_delay_s + self.service_time_s


class OverloadStats(CounterBackedStats):
    """Admission accounting (``overload_*_total``, labelled by service).

    The partition invariant: every offered request lands in exactly one of
    ``admitted``, ``shed``, ``rejected_queue_full``, ``rejected_deadline``.
    """

    FIELDS = ("admitted", "shed", "rejected_queue_full", "rejected_deadline")
    PREFIX = "overload"

    @property
    def offered(self) -> int:
        """Total requests offered = the sum over the partition."""
        return (self.admitted + self.shed
                + self.rejected_queue_full + self.rejected_deadline)


class OverloadGuard:
    """Admission control in front of one service, on simulated time.

    The queue is *virtual*: admitted work is a deque of finish times and a
    ``busy-until`` watermark; nothing is scheduled.  Offering a request at
    time ``now`` first drains everything that finished by ``now``, then
    decides: deadline admission, queue bound, CoDel shedding — in that
    order — and finally appends the admitted request to the backlog.
    Callers that model latency add ``Admission.queue_delay_s`` to their
    clock; callers that don't still get correct shed/reject behaviour.
    """

    def __init__(
        self,
        service_time_s: float,
        name: str = "service",
        queue_capacity: Optional[int] = 64,
        codel_target_s: Optional[float] = 0.005,
        codel_interval_s: float = 0.100,
        deadline_admission: bool = True,
        critical_priority: int = 0,
        telemetry: Optional[Telemetry] = None,
    ):
        if service_time_s <= 0:
            raise OverloadError("service_time_s must be positive")
        if queue_capacity is not None and queue_capacity < 1:
            raise OverloadError("queue_capacity must be >= 1 (or None)")
        if codel_target_s is not None and codel_target_s < 0:
            raise OverloadError("codel_target_s must be non-negative")
        if codel_interval_s <= 0:
            raise OverloadError("codel_interval_s must be positive")
        self.service_time_s = service_time_s
        self.name = name
        self.queue_capacity = queue_capacity
        self.codel_target_s = codel_target_s
        self.codel_interval_s = codel_interval_s
        self.deadline_admission = deadline_admission
        self.critical_priority = critical_priority
        tel = resolve(telemetry)
        self.stats = OverloadStats(
            tel.metrics if tel.enabled else None, labels={"service": name}
        )
        self._depth_gauge = tel.metrics.gauge(
            "overload_queue_depth",
            "Requests currently queued or in service at the guard.",
            labels={"service": name},
        )
        self._delay_hist = tel.metrics.histogram(
            "overload_queue_delay_seconds",
            "Queueing delay seen by admitted requests.",
            labels={"service": name},
        )
        #: priority -> requests shed at that priority (the degradation
        #: ordering the experiment reports).
        self.shed_by_priority: Dict[int, int] = {}
        self._busy_until = 0.0
        self._finish_times: Deque[float] = deque()
        #: When the queueing delay first rose above the CoDel target
        #: (None while at or under the target).
        self._above_target_since: Optional[float] = None

    # -- state inspection -------------------------------------------------------

    def _drain(self, now: float) -> None:
        finish_times = self._finish_times
        while finish_times and finish_times[0] <= now:
            finish_times.popleft()

    def queue_delay_s(self, now: float) -> float:
        """Backlog a request arriving at ``now`` would wait behind."""
        return max(0.0, self._busy_until - now)

    def queue_depth(self, now: float) -> int:
        """Requests queued or in service at ``now``."""
        self._drain(now)
        return len(self._finish_times)

    def overloaded(self, now: float) -> bool:
        """Is the guard currently past its healthy operating point?

        With CoDel configured: queueing delay above the target.  Without
        (bounded-queue-only guards): the queue is at capacity.  Guards
        with neither report overload once the backlog exceeds ten service
        times — they have no configured target, but a status page should
        still see the queue growing.
        """
        delay = self.queue_delay_s(now)
        if self.codel_target_s is not None:
            return delay > self.codel_target_s
        if self.queue_capacity is not None:
            return self.queue_depth(now) >= self.queue_capacity
        return delay > 10 * self.service_time_s

    # -- admission --------------------------------------------------------------

    def offer(
        self,
        now: float,
        deadline_s: Optional[float] = None,
        priority: int = 1,
    ) -> Admission:
        """Decide one request offered at ``now``; never raises.

        ``deadline_s`` is an *absolute* simulated time by which the caller
        needs the response.  ``priority`` orders shedding: values at or
        below ``critical_priority`` are never CoDel-shed.
        """
        svc = self.service_time_s
        self._drain(now)
        backlog = self.queue_delay_s(now)
        verdict = self._decide(now, backlog, svc, deadline_s, priority)
        if verdict is not AdmissionVerdict.ADMITTED:
            self.stats.inc(_VERDICT_FIELD[verdict])
            if verdict is AdmissionVerdict.SHED:
                self.shed_by_priority[priority] = (
                    self.shed_by_priority.get(priority, 0) + 1
                )
            self._depth_gauge.set(len(self._finish_times))
            return Admission(verdict, backlog, svc, 0.0, priority)
        finish = now + backlog + svc
        self._busy_until = finish
        self._finish_times.append(finish)
        self.stats.inc("admitted")
        self._delay_hist.observe(backlog)
        self._depth_gauge.set(len(self._finish_times))
        return Admission(AdmissionVerdict.ADMITTED, backlog, svc, finish, priority)

    def _decide(
        self, now: float, backlog: float, svc: float,
        deadline_s: Optional[float], priority: int,
    ) -> AdmissionVerdict:
        if (
            self.deadline_admission
            and deadline_s is not None
            and now + backlog + svc > deadline_s
        ):
            return AdmissionVerdict.REJECTED_DEADLINE
        if (
            self.queue_capacity is not None
            and len(self._finish_times) >= self.queue_capacity
        ):
            return AdmissionVerdict.REJECTED_QUEUE_FULL
        target = self.codel_target_s
        if target is not None:
            if backlog > target:
                if self._above_target_since is None:
                    self._above_target_since = now
                elif (
                    now - self._above_target_since >= self.codel_interval_s
                    and priority > self.critical_priority
                ):
                    return AdmissionVerdict.SHED
            else:
                self._above_target_since = None
        return AdmissionVerdict.ADMITTED

    def admit(
        self,
        now: float,
        deadline_s: Optional[float] = None,
        priority: int = 1,
    ) -> Admission:
        """Like :meth:`offer`, but raises :exc:`OverloadRejected` on refusal."""
        admission = self.offer(now, deadline_s, priority)
        if not admission.admitted:
            raise OverloadRejected(
                f"{self.name}: {admission.verdict.value} "
                f"(queue delay {admission.queue_delay_s * 1000:.1f} ms)",
                admission.verdict,
                service=self.name,
                queue_delay_s=admission.queue_delay_s,
            )
        return admission


_VERDICT_FIELD = {
    AdmissionVerdict.SHED: "shed",
    AdmissionVerdict.REJECTED_QUEUE_FULL: "rejected_queue_full",
    AdmissionVerdict.REJECTED_DEADLINE: "rejected_deadline",
}


class RetryBudget:
    """A token bucket bounding how often a client may retry.

    Every fresh request deposits ``ratio`` tokens (capped at
    ``capacity``); every retry withdraws one.  With the default ratio of
    0.1 a client can retry at most ~10% of its traffic in steady state —
    enough to ride out blips, not enough to sustain a retry storm.
    """

    def __init__(self, ratio: float = 0.1, capacity: float = 10.0):
        if ratio < 0:
            raise OverloadError("ratio must be non-negative")
        if capacity <= 0:
            raise OverloadError("capacity must be positive")
        self.ratio = ratio
        self.capacity = capacity
        self.tokens = capacity
        #: Retries refused for lack of tokens / retries paid for.
        self.exhausted = 0
        self.spent = 0

    def on_request(self) -> None:
        """A fresh (non-retry) request: earn ``ratio`` tokens."""
        self.tokens = min(self.capacity, self.tokens + self.ratio)

    def try_retry(self) -> bool:
        """Spend one token for a retry; False (and counted) when empty."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.exhausted += 1
        return False


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed → open → half-open breaker on simulated time.

    ``failure_threshold`` *consecutive* failures open the breaker; while
    open, :meth:`allow` refuses every request (the invariant the property
    tests pin: the breaker never serves while open).  After
    ``reset_timeout_s`` the first :meth:`allow` call transitions to
    half-open and lets exactly one probe through; a recorded success
    closes the breaker, a failure re-opens it for another timeout.
    """

    def __init__(self, name: str = "service", failure_threshold: int = 5,
                 reset_timeout_s: float = 1.0,
                 telemetry: Optional[Telemetry] = None):
        if failure_threshold < 1:
            raise OverloadError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise OverloadError("reset_timeout_s must be positive")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_outstanding = False
        #: (time, from-state, to-state) — the full transition history.
        self.transitions: List[Tuple[float, str, str]] = []
        tel = resolve(telemetry)
        self._tel = tel

    def _transition(self, to: BreakerState, now: float) -> None:
        self.transitions.append((now, self.state.value, to.value))
        if self._tel.enabled:
            self._tel.metrics.counter(
                "overload_breaker_transitions_total",
                "Circuit-breaker state transitions.",
                labels={"breaker": self.name, "to": to.value},
            ).inc()
        self.state = to

    def allow(self, now: float) -> bool:
        """May a request be sent at ``now``?  Refusals are local and free."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self._opened_at >= self.reset_timeout_s:
                self._transition(BreakerState.HALF_OPEN, now)
                self._probe_outstanding = True
                return True
            return False
        # HALF_OPEN: exactly one probe in flight at a time.
        if self._probe_outstanding:
            return False
        self._probe_outstanding = True
        return True

    def record_success(self, now: float) -> None:
        self._consecutive_failures = 0
        self._probe_outstanding = False
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        self._probe_outstanding = False
        if self.state is BreakerState.HALF_OPEN:
            self._opened_at = now
            self._transition(BreakerState.OPEN, now)
            return
        if self.state is BreakerState.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._opened_at = now
                self._transition(BreakerState.OPEN, now)

    @property
    def open_intervals(self) -> List[Tuple[float, Optional[float]]]:
        """[(opened-at, reopened-or-None)] — for the never-serves-open check."""
        intervals: List[Tuple[float, Optional[float]]] = []
        for when, _, to in self.transitions:
            if to == BreakerState.OPEN.value:
                intervals.append((when, None))
            elif intervals and intervals[-1][1] is None:
                intervals[-1] = (intervals[-1][0], when)
        return intervals
