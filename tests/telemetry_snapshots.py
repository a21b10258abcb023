"""Telemetry snapshots: two seeded runs of the ``chaos`` and ``overload``
scenarios with full telemetry attached, which the end-to-end observability
tests read.

:func:`chaos_telemetry_snapshot` cuts a link under probe loss, ingests the
signed revocation, crashes a path server under a supervisor and probes with
a connectivity monitor, all into one metrics registry, tracer and event
timeline.  :func:`overload_telemetry_snapshot` runs the protected stack of
the ``overload`` experiment through a short storm.
"""

from typing import Dict

from repro.core.monitoring import ConnectivityMonitor
from repro.core.supervisor import Supervisor
from repro.endhost.daemon import Daemon
from repro.endhost.pan import HostRegistry, PanContext, ScionHost
from repro.endhost.policy import LowestLatencyPolicy
from repro.experiments import overload as overload_exp
from repro.experiments.chaos_resilience import A, B, RECOVERY_LOSS
from repro.experiments.common import diamond_topology
from repro.netsim.chaos import FaultInjector, FaultProfile
from repro.netsim.simulator import Simulator
from repro.obs import Telemetry, build_health_report, validate_trace
from repro.scion.addr import HostAddr
from repro.scion.network import ScionNetwork


def chaos_telemetry_snapshot(seed: int = 11) -> Dict[str, object]:
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
        spans = tel.tracer.spans()
        ingest = [s for s in spans if s.name == "revocation.ingest"]
        trace_id = ingest[0].trace_id if ingest else ""
        trace = [s for s in spans if s.trace_id == trace_id]
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


def overload_telemetry_snapshot(seed: int = 17) -> Dict[str, object]:
    """One protected surge slice with full telemetry: the obs/ demo.

    Runs the protected stack through a short storm with a live
    :class:`~repro.obs.Telemetry`, so every admission verdict, shed count
    and breaker transition flows into ONE metrics registry,
    and returns the Prometheus export plus a mid-surge health report whose
    status is OVERLOADED (everything is up — just saturated).
    """
    tel = Telemetry()
    network = ScionNetwork(diamond_topology(), seed=seed, telemetry=tel)
    network.services[A].path_server.segments_for(B, now=0.0)
    outcome = overload_exp._run_storm(
        network, overload_exp._storm(1.0, 4.0, seed), duration_s=6.0,
    )
    return {
        "outcome": outcome,
        "prometheus": tel.metrics.prometheus_text(),
        "metrics_json": tel.metrics.to_json(),
        "health_status": outcome.health_status,
        "overloaded_services": outcome.overloaded_services,
    }
