"""Reference arms: the naive halves of the ``adversary`` and ``overload``
experiments, which ``src/`` can no longer build.

The shipped classes verify unconditionally, so the "same attack succeeds
once the gate is open" contrast is produced here, by patching existing
names for the duration of a ``with`` block (:func:`gates_open`), and the
"unbounded queue + unbudgeted retries collapses metastably" contrast by
the retry loop the experiment used to carry (:func:`naive_storm`).  Both
run the experiments' own seeds and attack/arrival streams.
"""

import heapq
import math
import random
from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.core.overload import OverloadGuard
from repro.experiments import adversary as adversary_exp
from repro.experiments import overload as overload_exp
from repro.experiments.common import diamond_topology, percentile
from repro.experiments.overload import (
    A,
    B,
    CAPACITY_RPS,
    DEADLINE_S,
    MAX_RETRIES,
    RETRY_BASE_S,
    SERVICE_TIME_S,
    SWEEP_MULTIPLES,
    StackOutcome,
)
from repro.netsim.chaos import LoadSurge
from repro.obs import Slo, SloEngine, Telemetry, build_health_report
from repro.scion.dataplane import router as router_module
from repro.scion.network import ScionNetwork
from repro.scion.path import HopField
from repro.sciera.lightningfilter import LightningFilter


def unbounded_guard(service_time_s, name="service", telemetry=None):
    """No queue bound, no shedding, no deadline admission: admits all."""
    return OverloadGuard(
        service_time_s, name=name, queue_capacity=None, codel_target_s=None,
        deadline_admission=False, telemetry=telemetry,
    )


# -- adversary: every verification gate open ---------------------------------------


@contextmanager
def gates_open(network, daemons=()):
    """The pre-hardening posture, for the duration of the block.

    PCB signatures and freshness, revocation signatures and freshness
    (path servers and ``daemons``), hop-field MACs and the hop-lifetime
    bound, and LightningFilter authentication all accept whatever they
    are handed; everything is restored on exit.
    """
    with ExitStack() as stack:
        def patch(target, name, value):
            stack.enter_context(mock.patch.object(target, name, value))

        patch(network.beaconing, "verify_beacons", False)
        patch(network.beaconing, "max_beacon_age_s", math.inf)
        for service in network.services.values():
            patch(service.path_server, "revocation_verifier", None)
            patch(service.path_server, "check_revocation_freshness", False)
        for daemon in daemons:
            patch(daemon, "revocation_verifier", None)
        patch(HopField, "verify", lambda self, key, timestamp: True)
        patch(router_module, "MAX_HOP_LIFETIME_S", math.inf)
        patch(LightningFilter, "verify", lambda self, *args, **kwargs: True)
        yield


def run_naive_campaign(seed=0):
    """The experiment's arm and attack stream, run with the gates open
    and no admission control worth the name in front of the path server."""
    arm = adversary_exp.build_arm(seed=seed)
    arm.name = "naive"
    arm.guard = unbounded_guard(0.002, name=arm.guard.name)
    with gates_open(arm.network, daemons=[arm.daemon]):
        outcomes = adversary_exp.run_attack_campaign(arm)
    return arm, outcomes


# -- overload: unbounded queue, unbudgeted retries ---------------------------------


def naive_storm(network, surge, duration_s, telemetry=None, slo=None,
                slo_interval_s=0.25):
    """The naive client/server stack through ``surge``: an unbounded FIFO
    guard that admits everything, and clients that re-issue a timed-out
    lookup up to ``MAX_RETRIES`` times with no retry budget and no
    breaker.  ``slo`` (an :class:`SloEngine`) is sampled on a fixed
    sim-time cadence as the request clock advances.
    """
    server = network.services[A].path_server
    guard = unbounded_guard(
        SERVICE_TIME_S, name=f"pathserver-{A}", telemetry=telemetry
    )
    server.guard = guard
    rng = random.Random(surge.seed ^ 0x5EED)
    out = StackOutcome(name="naive", bins=[0] * int(duration_s))

    heap = []
    seq = 0
    for arrival in surge.arrivals(duration_s):
        heap.append((arrival.time_s, seq, 0, arrival.priority))
        seq += 1
    heapq.heapify(heap)
    out.offered = len(heap)

    admitted_latencies = []
    health_at = (surge.surge_start_s + surge.surge_end_s) / 2.0
    next_sample_s = slo_interval_s

    while heap:
        t, _, attempt, priority = heapq.heappop(heap)
        if slo is not None:
            while next_sample_s <= min(t, duration_s):
                slo.sample(next_sample_s)
                next_sample_s += slo_interval_s
        if t >= duration_s:
            continue
        out.attempts += 1
        deadline = t + DEADLINE_S

        if not out.health_status and t >= health_at and guard.overloaded(t):
            report = build_health_report(
                network, now=t, guards={guard.name: guard}
            )
            out.health_status = report.status
            out.overloaded_services = dict(report.overloaded_services)

        _, _, _, timing = server.segments_for(
            B, now=t, deadline_s=deadline, priority=priority
        )
        latency = timing.latency_s + SERVICE_TIME_S
        admitted_latencies.append(latency)
        finish = t + latency
        if latency <= DEADLINE_S:
            out.goodput += 1
            if finish < duration_s:
                out.bins[int(finish)] += 1
        else:
            # The client gave up at its deadline; the server still did the
            # work (that waste is the metastability fuel).
            out.late += 1
            out.timeouts += 1
            if attempt < MAX_RETRIES:
                backoff = rng.uniform(0.5, 1.5) * RETRY_BASE_S
                heapq.heappush(
                    heap, (deadline + backoff, seq, attempt + 1, priority)
                )
                seq += 1
                out.retries_sent += 1

    if slo is not None:
        # Drain the sample clock to the end of the run so burn-clear
        # events fire once the storm subsides.
        while next_sample_s <= duration_s:
            slo.sample(next_sample_s)
            next_sample_s += slo_interval_s

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
    server.guard = None
    return out


def _warm_network(seed, telemetry=None):
    network = ScionNetwork(diamond_topology(), seed=seed, telemetry=telemetry)
    network.services[A].path_server.segments_for(B, now=0.0)
    return network


def run_naive_storms(seed=17):
    """The naive counterpart of ``run_storms(fast=True)``: the experiment's
    own storm stream and the same five constant-rate sweep points."""
    network = _warm_network(seed)
    storm = naive_storm(network, overload_exp._storm(4.0, 7.0, seed), 18.0)
    sweep = []
    for multiple in SWEEP_MULTIPLES:
        rate_rps = multiple * CAPACITY_RPS
        point = naive_storm(
            network, LoadSurge(rate_rps, surge_multiplier=1.0, seed=seed), 3.0
        )
        sweep.append({
            "offered_rps": rate_rps,
            "goodput_rps": point.goodput / 3.0,
            "on_time_fraction": point.goodput / point.offered,
        })
    return {"naive": storm, "sweep": sweep}


def naive_slo_snapshot(seed=17):
    """The naive stack under a surge, watched by an SLO burn-rate engine
    (objective: 95% of lookups within the client deadline)."""
    tel = Telemetry()
    network = _warm_network(seed, telemetry=tel)
    engine = SloEngine(
        metrics=tel.metrics,
        slos=(
            Slo(
                name="lookup-latency",
                objective=0.95,
                kind="latency",
                metric="pathserver_lookup_latency_seconds",
                threshold=DEADLINE_S,
            ),
        ),
        events=tel.events,
    )
    outcome = naive_storm(
        network, overload_exp._storm(1.0, 4.0, seed), 6.0, telemetry=tel,
        slo=engine,
    )
    timeline = tel.events.timeline(source="slo")
    return {
        "outcome": outcome,
        "alerts": [e for e in timeline if e.kind == "slo-burn-rate"],
        "clears": [e for e in timeline if e.kind == "slo-burn-clear"],
        "status": engine.status(),
    }
