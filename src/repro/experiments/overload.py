"""Overload experiment: graceful degradation under a lookup storm.

The paper's deployment lessons (Hercules/LightningFilter queueing, the
Section 4.8 dispatcher bottleneck) are about demand exceeding capacity,
and "SCION Five Years Later" stresses that control-plane services must
survive *surging* load, not just faults.  This experiment subjects a real
:class:`~repro.scion.control.path_server.LocalPathServer` to a seeded
open-loop lookup storm (:class:`~repro.netsim.chaos.LoadSurge`) behind the
full :mod:`repro.resilience.overload` discipline: deadline-aware admission
(work that cannot finish inside the client's budget is rejected up
front), CoDel-style shedding of sheddable arrivals when queueing delay
stays above target (critical priority-0 work keeps flowing), a shared
:class:`CircuitBreaker` that trips under sustained rejection so clients
serve stale locally instead of hammering the server, and a
:class:`RetryBudget` gating what few timeout-retries remain.  Explicit
rejection is honored by *serving stale, not retrying* — the daemon's
behaviour — so the surge produces zero retry amplification and goodput
recovers to baseline within the first post-surge second.

The contrast — an unbounded FIFO queue with clients that retry timed-out
lookups with no budget, which collapses metastably under the same seeded
storm — is the reference arm in ``tests/reference_arms.py``; nothing in
this module can build it.

Lookups are cache-warm (the storm exercises queueing, not segment
combination), so a request's modeled latency is its queueing delay plus
the guard's service time.  Everything is seeded: the arrival stream, the
retry jitter, and hence every counter; :func:`run` reports a single
sha256 digest over the goodput bins, the offered-load sweep, and the shed
accounting, so two runs with the same seed are byte-identical.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import diamond_topology, percentile
from repro.experiments.registry import Comparison, ExperimentResult
from repro.netsim.chaos import FaultInjector, LoadSurge
from repro.obs import build_health_report
from repro.resilience.overload import (
    CircuitBreaker,
    OverloadGuard,
    OverloadRejected,
    RetryBudget,
)
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork

A = IA.parse("71-100")
B = IA.parse("71-200")

#: Seed of the network, the fault stream and the load surges.
SEED = 17
#: Modeled path-server service time: 2 ms per lookup -> 500 rps capacity.
SERVICE_TIME_S = 0.002
CAPACITY_RPS = 1.0 / SERVICE_TIME_S
#: Client deadline per lookup; queueing past this makes the answer useless.
DEADLINE_S = 0.050
#: Steady offered load: half of capacity.
BASELINE_RPS = 0.5 * CAPACITY_RPS
#: Surge multiplier on the baseline: 8 x 0.5 = 4 x estimated capacity.
SURGE_MULTIPLIER = 8.0
#: Fraction of arrivals that are critical control-plane work (priority 0).
HIGH_PRIORITY_FRACTION = 0.05
#: Clients re-issue a timed-out lookup up to this many times, budget allowing.
MAX_RETRIES = 3
#: Timeout retries back off by uniform[0.5, 1.5] x this, after the deadline.
RETRY_BASE_S = 0.050
#: Offered-load sweep points, as multiples of capacity.
SWEEP_MULTIPLES: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass
class StackOutcome:
    """Everything one storm run produced."""

    name: str
    offered: int = 0            #: fresh arrivals (the storm's demand)
    attempts: int = 0           #: including client retries
    goodput: int = 0            #: admitted AND finished inside the deadline
    late: int = 0               #: admitted but finished past the deadline
    stale_served: int = 0       #: rejected/shed/breaker-open -> stale answer
    timeouts: int = 0
    retries_sent: int = 0
    bins: List[int] = field(default_factory=list)   #: goodput per second
    baseline_rps: float = 0.0
    recovered_at_s: Optional[float] = None          #: after surge end
    post_surge_fraction: float = 0.0                #: post-surge mean/baseline
    p99_admitted_latency_s: float = 0.0
    shed_by_priority: Dict[int, int] = field(default_factory=dict)
    stats: Dict[str, int] = field(default_factory=dict)
    budget_spent: int = 0
    budget_exhausted: int = 0
    breaker_transitions: int = 0
    health_status: str = ""
    overloaded_services: Dict[str, float] = field(default_factory=dict)


def _run_storm(
    network: ScionNetwork,
    surge: LoadSurge,
    duration_s: float,
) -> StackOutcome:
    """Drive the real path server through ``surge`` for ``duration_s``.

    Event-driven on simulated time: a heap of (time, seq, attempt,
    priority) client requests, seeded retry jitter, and the analytic
    queue inside the guard supplying every latency.  A constant-rate
    sweep point is a surge with no window (multiplier 1).  The guard and
    the breaker report to the network's telemetry.
    """
    telemetry = network.telemetry
    name = "protected"
    server = network.services[A].path_server
    guard = OverloadGuard(
        SERVICE_TIME_S,
        name=f"pathserver-{A}",
        queue_capacity=256,
        codel_target_s=0.005,
        codel_interval_s=0.100,
        deadline_admission=True,
        critical_priority=0,
        telemetry=telemetry,
    )
    server.guard = guard
    budget = RetryBudget(ratio=0.1, capacity=10.0)
    breaker = CircuitBreaker(
        name=f"{name}-lookup", failure_threshold=10, reset_timeout_s=0.25,
        telemetry=telemetry,
    )
    rng = random.Random(surge.seed ^ 0x5EED)
    out = StackOutcome(name=name, bins=[0] * int(duration_s))

    heap: List[Tuple[float, int, int, int]] = []
    seq = 0
    for arrival in surge.arrivals(duration_s):
        heap.append((arrival.time_s, seq, 0, arrival.priority))
        seq += 1
    heapq.heapify(heap)
    out.offered = len(heap)

    admitted_latencies: List[float] = []
    health_at = (surge.surge_start_s + surge.surge_end_s) / 2.0

    while heap:
        t, _, attempt, priority = heapq.heappop(heap)
        if t >= duration_s:
            continue
        if attempt == 0:
            budget.on_request()
        out.attempts += 1
        deadline = t + DEADLINE_S

        if not out.health_status and t >= health_at and guard.overloaded(t):
            report = build_health_report(
                network, now=t, guards={guard.name: guard}
            )
            out.health_status = report.status
            out.overloaded_services = dict(report.overloaded_services)

        # Breaker: tripped by sustained rejection; while open, non-critical
        # lookups are answered from the stale cache without touching the
        # server at all.  Critical work (priority 0) bypasses it.
        sheddable = priority > 0
        if sheddable and not breaker.allow(t):
            out.stale_served += 1
            continue
        try:
            _, _, _, timing = server.segments_for(
                B, now=t, deadline_s=deadline, priority=priority
            )
        except OverloadRejected:
            # Explicit rejection: serve stale, never retry (the daemon's
            # discipline) — this is what stops the retry storm.
            out.stale_served += 1
            if sheddable:
                breaker.record_failure(t)
            continue
        latency = timing.latency_s + SERVICE_TIME_S
        admitted_latencies.append(latency)
        finish = t + latency
        if latency <= DEADLINE_S:
            out.goodput += 1
            if finish < duration_s:
                out.bins[int(finish)] += 1
            if sheddable:
                breaker.record_success(t)
        else:
            # The client gave up at its deadline; the server still did the
            # work (that waste is the metastability fuel).
            out.late += 1
            out.timeouts += 1
            if sheddable:
                breaker.record_failure(t)
            if attempt < MAX_RETRIES and budget.try_retry():
                backoff = rng.uniform(0.5, 1.5) * RETRY_BASE_S
                heapq.heappush(
                    heap, (deadline + backoff, seq, attempt + 1, priority)
                )
                seq += 1
                out.retries_sent += 1

    # -- goodput analysis ------------------------------------------------------
    pre = out.bins[: int(surge.surge_start_s)]
    out.baseline_rps = sum(pre) / len(pre) if pre else 0.0
    post_start = int(math.ceil(surge.surge_end_s))
    post = out.bins[post_start:]
    if out.baseline_rps > 0:
        out.post_surge_fraction = (
            (sum(post) / len(post)) / out.baseline_rps if post else 0.0
        )
        for index in range(post_start, len(out.bins)):
            if out.bins[index] >= 0.9 * out.baseline_rps:
                out.recovered_at_s = index - surge.surge_end_s
                break
    out.p99_admitted_latency_s = percentile(admitted_latencies, 0.99)
    out.shed_by_priority = dict(guard.shed_by_priority)
    out.stats = {
        "admitted": guard.stats.admitted,
        "shed": guard.stats.shed,
        "rejected_queue_full": guard.stats.rejected_queue_full,
        "rejected_deadline": guard.stats.rejected_deadline,
        "offered": guard.stats.offered,
    }
    out.budget_spent = budget.spent
    out.budget_exhausted = budget.exhausted
    out.breaker_transitions = len(breaker.transitions)
    server.guard = None
    return out


def _digest(payload: Dict[str, object]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _storm(
    surge_start_s: float, surge_end_s: float, seed: int,
    injector: Optional[FaultInjector] = None,
) -> LoadSurge:
    """The experiment's storm: baseline load with one surge window."""
    return LoadSurge(
        BASELINE_RPS, surge_multiplier=SURGE_MULTIPLIER,
        surge_start_s=surge_start_s, surge_end_s=surge_end_s,
        high_priority_fraction=HIGH_PRIORITY_FRACTION,
        seed=seed, injector=injector, name="protected-storm",
    )


def run_storms(fast: bool = True) -> Dict[str, object]:
    """The storm run plus the offered-load sweep; the experiment's data."""
    if fast:
        duration_s, surge_start_s, surge_end_s = 18.0, 4.0, 7.0
        sweep_duration_s = 3.0
    else:
        duration_s, surge_start_s, surge_end_s = 36.0, 6.0, 14.0
        sweep_duration_s = 6.0

    network = ScionNetwork(diamond_topology(), seed=SEED)
    injector = FaultInjector(seed=SEED)
    # Warm the lookup cache: the storm measures queueing, not combination.
    network.services[A].path_server.segments_for(B, now=0.0)

    protected = _run_storm(
        network, _storm(surge_start_s, surge_end_s, SEED, injector),
        duration_s,
    )
    # Goodput vs constant offered load: no surge window, no critical
    # arrivals.
    sweep = []
    for multiple in SWEEP_MULTIPLES:
        rate_rps = multiple * CAPACITY_RPS
        point = _run_storm(
            network, LoadSurge(rate_rps, surge_multiplier=1.0, seed=SEED),
            sweep_duration_s,
        )
        sweep.append({
            "offered_rps": rate_rps,
            "goodput_rps": point.goodput / sweep_duration_s,
            "on_time_fraction": (
                point.goodput / point.offered if point.offered else 0.0
            ),
        })
    digest = _digest({
        "schema": 1,
        "seed": SEED,
        "bins": {"protected": protected.bins},
        "stats": {"protected": protected.stats},
        "shed_by_priority": {"protected": protected.shed_by_priority},
        "sweep": {
            "protected": [
                {k: round(v, 9) for k, v in point.items()} for point in sweep
            ],
        },
        "fault_events": injector.event_digest(),
    })
    return {
        "protected": protected,
        "sweep": sweep,
        "digest": digest,
        "injector": injector,
        "surge_window_s": (surge_start_s, surge_end_s),
        "duration_s": duration_s,
    }


def run(fast: bool = True) -> ExperimentResult:
    data = run_storms(fast=fast)
    protected: StackOutcome = data["protected"]
    sweep = data["sweep"]

    surge_start_s, surge_end_s = data["surge_window_s"]
    surge_bins = protected.bins[int(surge_start_s) + 1: int(surge_end_s)]
    surge_goodput = sum(surge_bins) / len(surge_bins) if surge_bins else 0.0
    at_4x = sweep[SWEEP_MULTIPLES.index(4.0)]
    recovery = (
        "never" if protected.recovered_at_s is None
        else f"within {protected.recovered_at_s + 1.0:.0f}s of surge end"
    )

    sweep_line = "  goodput vs offered (rps): " + "  ".join(
        f"{m:g}x:{p['goodput_rps']:.0f}"
        for m, p in zip(SWEEP_MULTIPLES, sweep)
    )
    shed_line = (
        "  shed by priority: "
        + (", ".join(
            f"p{prio}={count}"
            for prio, count in sorted(protected.shed_by_priority.items())
        ) or "none")
        + f"; stale served {protected.stale_served}"
        + f", breaker transitions {protected.breaker_transitions}"
    )
    retry_line = (
        f"  retries sent: {protected.retries_sent} "
        f"(post-surge goodput {100 * protected.post_surge_fraction:.0f}% of "
        f"baseline {protected.baseline_rps:.0f} rps)"
    )
    health_line = (
        f"  mid-surge health: {protected.health_status or 'OK'} "
        f"({', '.join(sorted(protected.overloaded_services)) or 'no guard over target'})"
    )
    naive_line = (
        "  naive reference arm (unbounded queue, unbudgeted retries, same "
        "storm): tests/experiments/test_overload_experiment.py"
    )
    digest_line = f"  digest {data['digest']} (seed {SEED})"

    return ExperimentResult(
        "overload", "Overload control and graceful degradation",
        comparisons=[
            Comparison(
                "goodput @ 4x capacity offered",
                "graceful degradation, not collapse",
                f"{at_4x['goodput_rps']:.0f} rps of "
                f"{CAPACITY_RPS:.0f} rps capacity",
            ),
            Comparison(
                "surge-window goodput",
                "shed bulk, keep critical flowing",
                f"{surge_goodput:.0f} rps "
                f"(baseline {protected.baseline_rps:.0f} rps)",
            ),
            Comparison(
                "post-surge recovery",
                "flat recovery, no metastable collapse",
                recovery,
            ),
            Comparison(
                "p99 admitted latency",
                "admitted work finishes inside its deadline",
                f"{1000 * protected.p99_admitted_latency_s:.0f} ms "
                f"(deadline {1000 * DEADLINE_S:.0f} ms)",
            ),
        ],
        details="\n".join([
            sweep_line, shed_line, retry_line, health_line, naive_line,
            digest_line,
        ]),
    )
