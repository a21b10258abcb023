"""Property tests for the admission-control invariants (hypothesis).

Three invariants pinned here:

1. **Partition exactness** — admitted ⊎ shed ⊎ rejected-queue-full ⊎
   rejected-deadline partitions the offered load exactly, for any
   interleaving of arrivals, priorities, deadlines, and guard knobs.
2. **CoDel delay bound** — a non-critical request admitted with queueing
   delay above the CoDel target implies the delay has been observed above
   target for less than one full interval; equivalently, once a full
   interval of above-target observations has elapsed, every further
   non-critical arrival is shed until the delay sinks back under target.
3. **Breaker safety** — the circuit breaker never lets a request through
   while open: replaying any allow/success/failure schedule against the
   reconstructed ``open_intervals`` shows no admission strictly inside an
   open window (the admission that *closes* a window is its half-open
   probe, timestamped at the window's end).
"""

import math

from hypothesis import given, settings, strategies as st

from repro.resilience.overload import AdmissionVerdict, CircuitBreaker, OverloadGuard

# Arrival gaps and service times small enough to provoke queueing, large
# enough to avoid degenerate float dust.
_gaps = st.lists(
    st.floats(min_value=0.0, max_value=0.05, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=200,
)
_priorities = st.lists(st.integers(min_value=0, max_value=2), min_size=200,
                       max_size=200)


@given(
    gaps=_gaps,
    priorities=_priorities,
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
    target=st.one_of(
        st.none(),
        st.floats(min_value=0.001, max_value=0.02, allow_nan=False),
    ),
    deadline_budget=st.one_of(
        st.none(),
        st.floats(min_value=0.001, max_value=0.1, allow_nan=False),
    ),
)
@settings(max_examples=60, deadline=None)
def test_verdicts_partition_offered_load(
    gaps, priorities, capacity, target, deadline_budget
):
    guard = OverloadGuard(
        0.005, queue_capacity=capacity, codel_target_s=target,
        codel_interval_s=0.05,
    )
    counts = {verdict: 0 for verdict in AdmissionVerdict}
    now = 0.0
    for gap, priority in zip(gaps, priorities):
        now += gap
        deadline = None if deadline_budget is None else now + deadline_budget
        admission = guard.offer(now, deadline_s=deadline, priority=priority)
        counts[admission.verdict] += 1
    offered = len(gaps)
    assert guard.stats.offered == offered
    assert (
        guard.stats.admitted + guard.stats.shed
        + guard.stats.rejected_queue_full + guard.stats.rejected_deadline
        == offered
    )
    assert guard.stats.admitted == counts[AdmissionVerdict.ADMITTED]
    assert guard.stats.shed == counts[AdmissionVerdict.SHED]
    assert (guard.stats.rejected_queue_full
            == counts[AdmissionVerdict.REJECTED_QUEUE_FULL])
    assert (guard.stats.rejected_deadline
            == counts[AdmissionVerdict.REJECTED_DEADLINE])
    assert sum(guard.shed_by_priority.values()) == guard.stats.shed


@given(gaps=_gaps, priorities=_priorities)
@settings(max_examples=60, deadline=None)
def test_codel_bounds_above_target_admissions(gaps, priorities):
    target, interval = 0.004, 0.040
    guard = OverloadGuard(
        0.005, queue_capacity=None, codel_target_s=target,
        codel_interval_s=interval, deadline_admission=False,
        critical_priority=0,
    )
    # Mirror the observable CoDel state: the time the queueing delay was
    # first *observed* above target since it was last observed at/below.
    first_above = None
    now = 0.0
    for gap, priority in zip(gaps, priorities):
        now += gap
        backlog = guard.queue_delay_s(now)
        admission = guard.offer(now, priority=priority)
        if backlog > target:
            if first_above is None:
                first_above = now
            elif priority > 0 and now - first_above >= interval:
                # A full interval of sustained over-target delay: the
                # guard MUST shed every further non-critical arrival.
                assert admission.verdict is AdmissionVerdict.SHED, (
                    f"admitted at t={now} with delay {backlog} above "
                    f"target since {first_above}"
                )
        else:
            first_above = None
        if admission.admitted and priority > 0 and backlog > target:
            # Bound: an over-target admission happens only inside the
            # first interval after the delay crossed the target.
            assert now - first_above < interval


@given(
    events=st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=0.7, allow_nan=False),
            st.sampled_from(["request", "success", "failure"]),
        ),
        min_size=1, max_size=150,
    ),
    threshold=st.integers(min_value=1, max_value=5),
    timeout=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_breaker_never_serves_while_open(events, threshold, timeout):
    breaker = CircuitBreaker(
        failure_threshold=threshold, reset_timeout_s=timeout
    )
    allowed_times = []
    now = 0.0
    for gap, kind in events:
        now += gap
        if kind == "request":
            if breaker.allow(now):
                allowed_times.append(now)
        elif kind == "success":
            breaker.record_success(now)
        else:
            breaker.record_failure(now)
    for start, end in breaker.open_intervals:
        upper = math.inf if end is None else end
        for t in allowed_times:
            # The probe that closes a window is stamped exactly at its
            # end; anything strictly inside the window is a violation.
            assert not (start <= t < upper), (
                f"allowed at {t} inside open window [{start}, {end})"
            )
        if end is not None:
            assert end - start >= timeout
