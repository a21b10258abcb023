"""Revocation storm: does the pipeline beat per-host rediscovery?

The paper's Fig. 10c resilience story assumes that when a link dies, end
hosts stop using it *quickly*.  PR 2 gave each host SCMP-triggered
failover, but every host still had to rediscover the dead link on its own
— and kept re-trying it each time its short down-report expired.  The
revocation pipeline closes the loop network-wide: the first probe failure
mints a signed, TTL-bounded revocation; the daemon pushes it to the AS
path server; the registry quarantines every segment crossing the dead
interface; and every *other* daemon pulls the revocation on its next
lookup, skipping all affected paths before ever probing them.

This experiment runs the same seeded failure storm — two staggered link
cuts that kill the two best A→B paths — against a fleet of clients twice:

* **pipeline disabled** — daemons ignore revocation tokens and rely on
  short per-host down reports (the pre-pipeline behaviour);
* **pipeline enabled** — daemons ingest, push, and pull revocations.

Reported per mode:

* **stale paths served** — lookups that handed out a path crossing an
  interface the network already knew was dead;
* **p99 time-to-failover** — per-send latency penalty from probing dead
  paths (each failed attempt costs one attempt timeout);
* **time-to-reconverge** — when the *last* client stopped touching dead
  paths, relative to the first cut.

Everything is deterministic for a given seed: the cut schedule, the send
schedule, and every revocation land in the shared fault-event stream, and
the digest over that stream is byte-identical across runs.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.endhost.daemon import Daemon
from repro.endhost.pan import HostRegistry, PanContext, ScionHost
from repro.endhost.policy import LowestLatencyPolicy
from repro.experiments.common import diamond_topology, percentile
from repro.experiments.registry import Comparison, ExperimentResult
from repro.netsim.chaos import FaultInjector
from repro.scion.addr import HostAddr, IA
from repro.scion.network import ScionNetwork

A = IA.parse("71-100")
B = IA.parse("71-200")

#: Seed of the fault stream and both storm modes.
SEED = 23
#: Links cut during the storm, with cut times: the two lowest-latency
#: A->B paths die 100 ms apart.
CUT_SCHEDULE: Tuple[Tuple[str, float], ...] = (("a-c2", 1.0), ("c1c2-a", 1.1))
#: Clients keep sending until this simulated time.
WINDOW_END_S = 5.0
#: Per-client send cadence; clients are staggered inside one interval.
SEND_INTERVAL_S = 0.1
#: Cost of probing one dead path before failing over (SCMP timeout).
ATTEMPT_TIMEOUT_S = 0.05
#: Unsigned down-report TTL — the pre-pipeline rediscovery cadence.
DOWN_REPORT_TTL_S = 0.5
#: Signed revocation TTL — outlives the measurement window.
REVOCATION_TTL_S = 8.0


def _interface_keys(network: ScionNetwork, link_name: str) -> Set[str]:
    """Both global interface ids ("IA#ifid") of one link."""
    (ia_a, ifid_a), (ia_b, ifid_b) = network.topology.link_attachments[link_name]
    return {f"{ia_a}#{ifid_a}", f"{ia_b}#{ifid_b}"}


def _run_mode(
    pipeline: bool, n_clients: int, seed: int, injector: FaultInjector
) -> Dict[str, float]:
    """One full storm against a fresh network; returns the mode's metrics."""
    network = ScionNetwork(diamond_topology(), seed=seed)
    network.dataplane.revocation_ttl_s = REVOCATION_TTL_S
    mode = "pipeline" if pipeline else "baseline"
    path_server = network.services[A].path_server
    path_server.on_revocation = lambda rev: injector.record(
        0.0, f"{mode}:{rev.key}", "revocation-accepted"
    )

    registry = HostRegistry()
    server_host = ScionHost(network, B, "10.0.2.20", registry,
                            daemon=Daemon(network, B))
    PanContext(server_host).open_socket(8080).on_message(
        lambda p, s, pa: b"ok"
    )
    dst = HostAddr(B, server_host.ip, 8080)
    policy = LowestLatencyPolicy()
    clients = []
    for index in range(n_clients):
        host = ScionHost(
            network, A, f"10.0.1.{10 + index}", registry,
            daemon=Daemon(
                network, A,
                down_interface_ttl_s=DOWN_REPORT_TTL_S,
                propagate_revocations=pipeline,
            ),
        )
        clients.append(PanContext(host).open_socket())

    dead_keys: Set[str] = set()
    cut_iter = list(CUT_SCHEDULE)
    stagger = SEND_INTERVAL_S / n_clients
    stale_served = 0
    failover_costs: List[float] = []
    last_stale_at = 0.0
    first_cut_at = CUT_SCHEDULE[0][1]

    t = 0.5  # pre-cut warmup: prime every daemon cache
    while t < WINDOW_END_S:
        while cut_iter and t >= cut_iter[0][1]:
            link_name, cut_at = cut_iter.pop(0)
            network.set_link_state(link_name, False)
            dead_keys |= _interface_keys(network, link_name)
            injector.record(cut_at, f"{mode}:{link_name}", "link-cut")
        for index, client in enumerate(clients):
            now = t + index * stagger
            served = client.context.paths(dst.ia, now)
            stale_here = sum(
                1 for meta in served
                if dead_keys.intersection(meta.interfaces)
            )
            result = client.send_with_failover(
                dst, b"ping", policy=policy, max_attempts=4, now=now
            )
            if not dead_keys:
                continue
            stale_served += stale_here
            attempts_wasted = (
                result.paths_tried - 1 if result.success else result.paths_tried
            )
            failover_costs.append(attempts_wasted * ATTEMPT_TIMEOUT_S)
            if stale_here or attempts_wasted:
                last_stale_at = now
        t += SEND_INTERVAL_S

    for link_name, _ in CUT_SCHEDULE:  # leave the topology healthy
        network.set_link_state(link_name, True)
    reconverge_s = max(0.0, last_stale_at - first_cut_at)
    quarantined = network.registry.quarantined_count()
    return {
        "stale_served": float(stale_served),
        "p99_failover_s": percentile(failover_costs, 0.99),
        "reconverge_s": reconverge_s,
        "quarantined": float(quarantined),
        "sends": float(len(failover_costs)),
    }


def run(fast: bool = True) -> ExperimentResult:
    n_clients = 8 if fast else 24
    injector = FaultInjector(seed=SEED)
    injector.record(0.0, "storm", "config", f"seed={SEED} clients={n_clients}")
    baseline = _run_mode(False, n_clients, SEED, injector)
    pipeline = _run_mode(True, n_clients, SEED, injector)

    mode_line = (
        f"  stale served: baseline={baseline['stale_served']:.0f} "
        f"pipeline={pipeline['stale_served']:.0f} over "
        f"{baseline['sends']:.0f} post-cut sends/mode "
        f"({n_clients} clients, cuts {[c[0] for c in CUT_SCHEDULE]})"
    )
    quarantine_line = (
        f"  quarantine: pipeline held {pipeline['quarantined']:.0f} segments "
        f"(baseline {baseline['quarantined']:.0f}); revocation TTL "
        f"{REVOCATION_TTL_S:.0f}s vs down-report TTL {DOWN_REPORT_TTL_S:.1f}s"
    )
    digest_line = (
        f"  fault stream: {len(injector.events)} events, "
        f"digest {injector.event_digest()} (seed {SEED})"
    )

    return ExperimentResult(
        "revocation_storm", "Revocation pipeline vs per-host rediscovery",
        comparisons=[
            Comparison(
                "stale paths served",
                "quarantine stops re-serving (§5.4)",
                f"{baseline['stale_served']:.0f} -> "
                f"{pipeline['stale_served']:.0f} with pipeline",
            ),
            Comparison(
                "p99 time-to-failover",
                "switching paths instantly (§4.7)",
                f"{1000 * baseline['p99_failover_s']:.0f} ms -> "
                f"{1000 * pipeline['p99_failover_s']:.0f} ms",
            ),
            Comparison(
                "time-to-reconverge",
                "one revocation, network-wide",
                f"{baseline['reconverge_s']:.2f} s -> "
                f"{pipeline['reconverge_s']:.2f} s after first cut",
            ),
        ],
        details="\n".join([mode_line, quarantine_line, digest_line]),
    )
