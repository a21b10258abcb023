"""Chaos resilience benchmark: the repo's first robustness experiment.

The paper's deployment section is a list of things going wrong — the
KREONET outage, BRIDGES instabilities, maintenance windows (§5.4) — and
the stack's answer to them: bootstrap fallback, daemon caching, and
SCMP-triggered instant path failover (§4.7).  This experiment quantifies
that answer under *injected* faults:

1. **Bootstrap resilience sweep** — a primary bootstrap server with a
   per-request outage probability (plus one hard outage scenario) and a
   healthy secondary on a different hint channel; clients retry with
   exponential backoff + decorrelated jitter and fall back to the next
   server.  Reported: success rate, retry-amplification factor
   (fetch attempts per successful bootstrap), and latency percentiles.
2. **Recovery after an injected cut** — host pairs exchanging traffic when
   their best path's link is cut under 10% probe loss; reported: p50/p99
   time-to-recover (first successful delivery after the cut) via
   SCMP-triggered failover, without any control-plane re-lookup.

Everything is seeded: two runs with the same seed produce identical
:class:`FaultEvent` streams (checked via the injector digest in the
report) and identical metrics.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict, List, Tuple

from repro.core.retry import RetryPolicy
from repro.endhost.bootstrap import (
    BootstrapError,
    Bootstrapper,
    BootstrapServer,
    NetworkEnvironment,
)
from repro.endhost.daemon import Daemon
from repro.endhost.pan import HostRegistry, PanContext, ScionHost
from repro.endhost.policy import LowestLatencyPolicy
from repro.experiments.common import diamond_topology, percentile
from repro.experiments.registry import Comparison, ExperimentResult
from repro.netsim.chaos import FaultInjector, FaultProfile
from repro.scion.addr import HostAddr, IA
from repro.scion.network import ScionNetwork

A = IA.parse("71-100")
B = IA.parse("71-200")

#: Per-request refusal probabilities swept on the primary server.
OUTAGE_SWEEP: Tuple[float, ...] = (0.0, 0.2, 0.5)
#: Probe loss used in the recovery scenario (the "10% packet loss" bound).
RECOVERY_LOSS = 0.10
#: Client retry discipline for all bootstrap trials.
RETRY = RetryPolicy(max_attempts=6, base_delay_s=0.05, max_delay_s=1.0,
                    deadline_s=10.0)


def _bootstrap_setup(network: ScionNetwork, injector: FaultInjector,
                     outage: float):
    """Primary (chaotic, DNS channels) + secondary (healthy, DHCP) servers."""
    service = network.services[A]
    primary = BootstrapServer(
        topology=service.topology, signing_key=service.signing_key,
        certificate=service.certificate, trcs=[network.trc_for(71)],
        ip="10.0.1.1",
    )
    secondary = BootstrapServer(
        topology=service.topology, signing_key=service.signing_key,
        certificate=service.certificate, trcs=[network.trc_for(71)],
        ip="10.0.1.2",
    )
    chaotic_primary = injector.wrap_server(
        primary, FaultProfile(outage=outage), name="bootstrap-primary"
    )
    env = NetworkEnvironment(has_dns_search_domain=True, has_dhcp=True)
    env.dns_srv_hint = (primary.ip, primary.port)
    env.dns_sd_hint = (primary.ip, primary.port)
    env.dns_naptr_hint = (primary.ip, primary.port)
    env.dhcp_vivo_hint = (secondary.ip, secondary.port)
    servers = {
        (primary.ip, primary.port): chaotic_primary,
        (secondary.ip, secondary.port): secondary,
    }
    return env, servers, chaotic_primary


def _bootstrap_sweep(network: ScionNetwork, injector: FaultInjector,
                     trials: int, seed: int) -> Dict[float, Dict[str, float]]:
    """Success rate / amplification / latency per primary outage rate."""
    sweep: Dict[float, Dict[str, float]] = {}
    for outage in OUTAGE_SWEEP:
        env, servers, _ = _bootstrap_setup(network, injector, outage)
        successes = 0
        attempts_total = 0
        latencies: List[float] = []
        for trial in range(trials):
            client = Bootstrapper(
                env, servers, rng=random.Random(seed * 1000 + trial),
                retry_policy=RETRY,
            )
            try:
                result = client.bootstrap()
            except BootstrapError:
                attempts_total += RETRY.max_attempts
                continue
            successes += 1
            attempts_total += result.attempts
            latencies.append(result.total_latency_s)
        sweep[outage] = {
            "success_rate": successes / trials,
            "amplification": attempts_total / successes if successes else float("inf"),
            "p50_latency_s": statistics.median(latencies) if latencies else float("inf"),
        }
    return sweep


def _bootstrap_hard_outage(network: ScionNetwork, injector: FaultInjector,
                           trials: int, seed: int) -> Dict[str, float]:
    """Primary hard-down: every client must fall back to the secondary."""
    env, servers, chaotic_primary = _bootstrap_setup(network, injector, 0.0)
    chaotic_primary.set_down(True)
    successes = 0
    attempts_total = 0
    fallbacks = 0
    for trial in range(trials):
        client = Bootstrapper(
            env, servers, rng=random.Random(seed * 2000 + trial),
            retry_policy=RETRY,
        )
        try:
            result = client.bootstrap()
        except BootstrapError:
            attempts_total += RETRY.max_attempts
            continue
        successes += 1
        attempts_total += result.attempts
        if result.servers_failed:
            fallbacks += 1
    return {
        "success_rate": successes / trials,
        "amplification": attempts_total / successes if successes else float("inf"),
        "fallback_rate": fallbacks / successes if successes else 0.0,
    }


def _recovery_trials(network: ScionNetwork, injector: FaultInjector,
                     trials: int) -> List[float]:
    """Time-to-recover after cutting the best A→B link, under probe loss.

    Each trial: warm the daemon cache, cut ``a-c2`` (the lowest-latency
    path), then re-send every 50 ms with SCMP-triggered failover until a
    datagram lands.  TTR is first-success time minus cut time.
    """
    restore_probe = injector.wrap_dataplane(
        network.dataplane, FaultProfile(loss=RECOVERY_LOSS), target="dataplane"
    )
    recover_times: List[float] = []
    try:
        for trial in range(trials):
            registry = HostRegistry()
            host_a = ScionHost(network, A, "10.0.1.10", registry,
                               daemon=Daemon(network, A))
            host_b = ScionHost(network, B, "10.0.2.20", registry,
                               daemon=Daemon(network, B))
            ctx_a, ctx_b = PanContext(host_a), PanContext(host_b)
            ctx_b.open_socket(8080).on_message(lambda p, s, pa: b"ok")
            client = ctx_a.open_socket()
            dst = HostAddr(B, host_b.ip, 8080)
            policy = LowestLatencyPolicy()
            # Warm the path cache before the cut.
            client.send_with_failover(dst, b"warm", policy=policy, now=0.0)
            cut_at = 1.0
            network.set_link_state("a-c2", False)
            deadline = cut_at + 5.0
            now = cut_at
            try:
                while now < deadline:
                    result = client.send_with_failover(
                        dst, b"ping", policy=policy, max_attempts=4, now=now
                    )
                    if result.success:
                        recover_times.append(now - cut_at)
                        break
                    now += 0.05
                else:
                    recover_times.append(deadline - cut_at)
            finally:
                network.set_link_state("a-c2", True)
    finally:
        restore_probe()
    return recover_times


def telemetry_snapshot(seed: int = 11) -> Dict[str, object]:
    """One chaos/revocation run with full telemetry: the observability demo.

    Builds a telemetry-enabled diamond network, cuts the best A→B link
    under probe loss, lets SCMP-triggered failover ingest the signed
    revocation, then crashes and heals B's path server under a supervisor
    while a connectivity monitor probes — all flowing into ONE metrics
    registry, ONE tracer, and ONE event timeline.

    Returns the Prometheus text export, the JSON metrics export, the
    rendered :class:`~repro.obs.HealthReport`, the unified event timeline,
    and the failover trace (host → daemon → path server → registry, with
    the ``scmp.error`` and ``revocation.ingest`` spans).  Fully seeded:
    two calls with the same seed return byte-identical exports.
    """
    from repro.core.monitoring import ConnectivityMonitor
    from repro.core.supervisor import Supervisor
    from repro.netsim.simulator import Simulator
    from repro.obs import Telemetry, build_health_report, validate_trace

    tel = Telemetry()
    network = ScionNetwork(diamond_topology(), seed=seed, telemetry=tel)
    injector = FaultInjector(seed=seed, event_log=tel.events)
    supervisor = Supervisor(network)
    monitor = ConnectivityMonitor(
        network, vantage=A, targets=[B], probe_interval_s=0.5,
    )

    restore_probe = injector.wrap_dataplane(
        network.dataplane, FaultProfile(loss=RECOVERY_LOSS), target="dataplane"
    )
    try:
        registry = HostRegistry()
        host_a = ScionHost(network, A, "10.0.1.10", registry,
                           daemon=Daemon(network, A, telemetry=tel))
        host_b = ScionHost(network, B, "10.0.2.20", registry,
                           daemon=Daemon(network, B, telemetry=tel))
        ctx_a, ctx_b = PanContext(host_a), PanContext(host_b)
        ctx_b.open_socket(8080).on_message(lambda p, s, pa: b"ok")
        client = ctx_a.open_socket()
        dst = HostAddr(B, host_b.ip, 8080)
        policy = LowestLatencyPolicy()
        client.send_with_failover(dst, b"warm", policy=policy, now=0.0)
        # Cut the best link; the next send trips the SCMP error path,
        # ingests the signed revocation, and fails over to the c1 route.
        network.set_link_state("a-c2", False)
        injector.record(1.0, "a-c2", "link-down", "injected cut")
        client.send_with_failover(dst, b"ping", policy=policy,
                                  max_attempts=4, now=1.0)
        # The revoking AS's routers honor the now-active revocations, so
        # the health report shows the interface down at the router too.
        for revocation in network.registry.active_revocations(now=1.0):
            network.dataplane.apply_revocation(revocation)
        # A supervised path-server crash plus monitor probe rounds land in
        # the same timeline as the chaos faults and the revocation.
        supervisor.crash(f"ps:{B}", 1.2)
        sim = Simulator()
        monitor.start(sim)
        supervisor.schedule_health_checks(sim, until_s=2.5)
        # Cut B's only uplink mid-run: the monitor loses A→B entirely and
        # its connectivity-lost alert joins the timeline (deduplicated on
        # every later probe round while the pair stays down).
        sim.schedule_at(2.0, lambda: (
            network.set_link_state("b-c2", False),
            injector.record(2.0, "b-c2", "link-down", "injected cut"),
        ))
        sim.run(until=2.5)
        monitor.stop()
        report = build_health_report(
            network, now=2.5, supervisor=supervisor, monitor=monitor,
            events=tel.events,
        )
        ingest = tel.tracer.spans(name="revocation.ingest")
        trace_id = ingest[0].trace_id if ingest else ""
        trace = tel.tracer.spans(trace_id=trace_id)
        return {
            "prometheus": tel.metrics.prometheus_text(),
            "metrics_json": tel.metrics.to_json(),
            "health": report,
            "health_text": report.render(),
            "events": tel.events.timeline(),
            "event_digest": tel.events.digest(),
            "trace_spans": trace,
            "trace_problems": validate_trace(trace),
        }
    finally:
        restore_probe()
        network.set_link_state("a-c2", True)
        network.set_link_state("b-c2", True)


def run(fast: bool = True, seed: int = 11) -> ExperimentResult:
    trials = 40 if fast else 200
    network = ScionNetwork(diamond_topology(), seed=seed)
    injector = FaultInjector(seed=seed)

    sweep = _bootstrap_sweep(network, injector, trials, seed)
    hard = _bootstrap_hard_outage(network, injector, trials, seed)
    recovery = _recovery_trials(network, injector, trials)
    p50 = percentile(recovery, 0.50)
    p99 = percentile(recovery, 0.99)

    sweep_line = "  outage sweep: " + "  ".join(
        f"{int(rate * 100)}%:ok={m['success_rate']:.2f}/amp={m['amplification']:.2f}x"
        for rate, m in sweep.items()
    )
    kinds: Dict[str, int] = {}
    for event in injector.events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    fault_line = "  faults injected: " + ", ".join(
        f"{kind}={count}" for kind, count in sorted(kinds.items())
    )
    digest_line = (
        f"  fault stream: {len(injector.events)} events, "
        f"digest {injector.event_digest()} (seed {seed})"
    )

    return ExperimentResult(
        "chaos", "Resilience under injected faults",
        comparisons=[
            Comparison(
                "bootstrap w/ server outage",
                "service continued through outages (§5.4)",
                f"{100 * hard['success_rate']:.0f}% success via fallback, "
                f"amplification {hard['amplification']:.2f}x",
            ),
            Comparison(
                "bootstrap @ 50% refusals",
                "retries mask transient refusals",
                f"{100 * sweep[0.5]['success_rate']:.0f}% success, "
                f"p50 {1000 * sweep[0.5]['p50_latency_s']:.0f} ms",
            ),
            Comparison(
                "p50 recovery after cut",
                "switching paths instantly (§4.7)",
                f"{1000 * p50:.0f} ms at {int(100 * RECOVERY_LOSS)}% loss",
            ),
            Comparison(
                "p99 recovery after cut",
                "bounded by retry cadence",
                f"{1000 * p99:.0f} ms",
            ),
        ],
        details="\n".join([sweep_line, fault_line, digest_line]),
    )
