"""Control-plane chaos: crash-reconvergence, availability, renewal storms.

The paper's §5.4 is a catalogue of *control-plane* operational events —
PoP maintenance, service upgrades, outages — and Appendix A's
bootstrapping assumes the control services ride through them.  This
experiment puts the supervisor (:mod:`repro.core.supervisor`) under the
chaos layer and measures the three things an operator cares about:

1. **Time-to-reconverge after a control-service crash** — the supervisor
   detects the crash on its health-check cadence, backs off per its
   restart policy, and restarts either *cold* (empty beacon stores and
   segment registry; the network re-beacons to a fixed point) or *warm*
   (state restored from the last periodic checkpoint).  Warm restart must
   reconverge strictly faster — that is the point of checkpointing.
2. **Path-lookup availability during the outage** — lookups attempted on a
   fixed cadence across a fixed post-crash window, for both restart modes.
3. **Renewal-storm behaviour** — every AS certificate expires in the same
   window while the CA suffers a hard outage followed by per-request
   refusals; renewals retry with backoff until the fleet is healthy again.

Everything is seeded: both crash trials and the renewal storm feed one
:class:`FaultInjector` event stream, so two runs with the same seed
produce the identical digest and identical metrics.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.retry import RetryPolicy
from repro.core.supervisor import Supervisor
from repro.experiments.common import diamond_topology
from repro.experiments.registry import Comparison, ExperimentResult
from repro.netsim.chaos import FaultInjector, FaultProfile
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork

A = IA.parse("71-100")
B = IA.parse("71-200")
C = IA.parse("71-300")

#: Health-check cadence of the supervisor (simulated seconds).
CHECK_INTERVAL_S = 0.25
#: One synchronous beaconing round during a cold re-convergence.
BEACON_ROUND_S = 0.5
#: Restoring the checkpoint during a warm restart.
WARM_RESTORE_S = 0.05
#: Fixed post-crash window over which lookup availability is measured.
AVAILABILITY_WINDOW_S = 10.0
#: Cadence of the availability lookups inside that window.
LOOKUP_INTERVAL_S = 0.1
#: Short-lived certificates used in the renewal-storm phase.
STORM_CERT_LIFETIME_S = 60.0
#: Per-request CA refusal probability once the hard outage lifts.
STORM_CA_REFUSALS = 0.3


def _aligned_ticks(supervisor: Supervisor, t0: float, t: float,
                   done_until: List[float]) -> None:
    """Fire every health check due in (done_until, t], on the grid."""
    interval = supervisor.check_interval_s
    next_tick = done_until[0] + interval
    while next_tick <= t + 1e-9:
        supervisor.tick(next_tick)
        done_until[0] = next_tick
        next_tick += interval


def _crash_trial(seed: int, warm: bool, injector: FaultInjector) -> Dict[str, float]:
    """Crash the control service; measure reconvergence and availability."""
    network = ScionNetwork(diamond_topology(third_leaf=True), seed=seed)
    supervisor = Supervisor(
        network,
        check_interval_s=CHECK_INTERVAL_S,
        checkpoint_interval_s=1.0,
        warm_restart=warm,
        beacon_round_s=BEACON_ROUND_S,
        warm_restore_s=WARM_RESTORE_S,
        event_sink=injector.record,
    )
    t0 = float(network.timestamp)
    supervisor.tick(t0)  # first health check takes the initial checkpoint
    pairs: List[Tuple[IA, IA]] = [(A, B), (B, A), (C, B)]
    baseline = {
        pair: len(network.paths(*pair, refresh=True)) for pair in pairs
    }
    assert all(count > 0 for count in baseline.values())

    crash_at = t0 + 1.0
    done_until = [t0]
    _aligned_ticks(supervisor, t0, crash_at, done_until)
    injector.crash_service(
        supervisor, Supervisor.CONTROL, crash_at,
        detail="warm-capable" if warm else "cold-only",
    )

    def converged(now: float) -> bool:
        if not supervisor.is_serving(Supervisor.CONTROL, now):
            return False
        for (src, dst), count in baseline.items():
            if not supervisor.is_serving(f"ps:{src}", now):
                return False
            if len(network.paths(src, dst, refresh=True)) < count:
                return False
        return True

    reconverge_s = AVAILABILITY_WINDOW_S
    found = False
    t = crash_at
    window_end = crash_at + AVAILABILITY_WINDOW_S
    while t < window_end - 1e-9:
        t = round(t + LOOKUP_INTERVAL_S, 9)
        _aligned_ticks(supervisor, t0, t, done_until)
        supervisor.lookup(A, B, t)
        supervisor.lookup(B, A, t)
        if not found and converged(t):
            reconverge_s = t - crash_at
            found = True
    stats = supervisor.stats
    return {
        "reconverge_s": reconverge_s,
        "availability": stats.lookup_availability,
        "rebeacon_rounds": float(stats.rebeacon_rounds),
        "cold_restarts": float(stats.cold_restarts),
        "warm_restarts": float(stats.warm_restarts),
    }


def _renewal_storm(seed: int, injector: FaultInjector) -> Dict[str, float]:
    """Expire every AS certificate in one window under a flaky CA."""
    network = ScionNetwork(diamond_topology(third_leaf=True), seed=seed + 1)
    t0 = float(network.timestamp)
    trust = network.isd_trust[71]
    # Re-issue every AS certificate short-lived so the storm happens in-sim.
    for ia, service in sorted(network.services.items()):
        service.certificate = trust.ca.issue_as_certificate(
            str(ia), service.signing_key.public, now=t0,
            lifetime_s=STORM_CERT_LIFETIME_S,
        )
    supervisor = Supervisor(
        network,
        check_interval_s=0.5,
        renewal_policy=RetryPolicy(
            max_attempts=5, base_delay_s=0.1, max_delay_s=2.0,
            deadline_s=20.0, seed=seed,
        ),
        event_sink=injector.record,
    )
    flaky_ca = injector.wrap_ca(
        trust.ca, FaultProfile(outage=STORM_CA_REFUSALS), name="ca-isd71"
    )
    supervisor.set_ca(71, flaky_ca)
    # Renewal window opens at 2/3 of the lifetime; the CA is hard-down for
    # the first 1.5 s of it, then refuses 30% of requests.
    window_open = t0 + STORM_CERT_LIFETIME_S * (2.0 / 3.0)
    flaky_ca.set_down(True, now=window_open)
    outage_lifts = window_open + 1.5
    lifted = False
    t = t0
    horizon = t0 + STORM_CERT_LIFETIME_S + 5.0
    while t < horizon - 1e-9:
        t = round(t + 0.5, 9)
        if not lifted and t >= outage_lifts:
            flaky_ca.set_down(False, now=t)
            lifted = True
        supervisor.tick(t)
    stats = supervisor.stats
    healthy = supervisor.certificate_health(horizon)
    renewed_times = [r.time_s for r in supervisor.renewal_log if r.ok]
    spread = (max(renewed_times) - min(renewed_times)) if renewed_times else 0.0
    peak = 0
    if renewed_times:
        peak = max(renewed_times.count(ts) for ts in set(renewed_times))
    return {
        "ases": float(len(network.services)),
        "renewals": float(stats.renewals),
        "attempts": float(stats.renewal_attempts),
        "failures": float(stats.renewal_failures),
        "amplification": (
            stats.renewal_attempts / stats.renewals
            if stats.renewals else float("inf")
        ),
        "all_healthy": 1.0 if all(healthy.values()) else 0.0,
        "spread_s": spread,
        "peak_per_tick": float(peak),
    }


def run(fast: bool = True, seed: int = 23) -> ExperimentResult:
    injector = FaultInjector(seed=seed)
    cold = _crash_trial(seed, warm=False, injector=injector)
    warm = _crash_trial(seed, warm=True, injector=injector)
    storm = _renewal_storm(seed, injector)

    speedup = (
        cold["reconverge_s"] / warm["reconverge_s"]
        if warm["reconverge_s"] > 0 else float("inf")
    )
    kinds: Dict[str, int] = {}
    for event in injector.events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    fault_line = "  faults injected: " + ", ".join(
        f"{kind}={count}" for kind, count in sorted(kinds.items())
    )
    storm_line = (
        f"  renewal storm: {storm['renewals']:.0f} renewals over "
        f"{storm['spread_s']:.1f}s (peak {storm['peak_per_tick']:.0f}/tick), "
        f"{storm['failures']:.0f} exhausted retry bursts during the CA outage"
    )
    digest_line = (
        f"  fault stream: {len(injector.events)} events, "
        f"digest {injector.event_digest()} (seed {seed})"
    )

    return ExperimentResult(
        "control_chaos", "Control-plane self-healing under chaos",
        comparisons=[
            Comparison(
                "reconverge (cold restart)",
                "re-beacon from scratch (§5.4)",
                f"{cold['reconverge_s']:.2f} s "
                f"({cold['rebeacon_rounds']:.0f} beacon rounds)",
            ),
            Comparison(
                "reconverge (warm restart)",
                "restore checkpointed state",
                f"{warm['reconverge_s']:.2f} s ({speedup:.1f}x faster)",
            ),
            Comparison(
                "lookup availability (cold)",
                "degraded during outage",
                f"{100 * cold['availability']:.1f}% over "
                f"{AVAILABILITY_WINDOW_S:.0f} s window",
            ),
            Comparison(
                "lookup availability (warm)",
                "mostly unaffected",
                f"{100 * warm['availability']:.1f}% over "
                f"{AVAILABILITY_WINDOW_S:.0f} s window",
            ),
            Comparison(
                "renewal storm",
                "fully automated renewal (§4.5)",
                f"{storm['renewals']:.0f} renewals for "
                f"{storm['ases']:.0f} ASes, amplification "
                f"{storm['amplification']:.2f}x, "
                f"healthy={'yes' if storm['all_healthy'] else 'NO'}",
            ),
        ],
        details="\n".join([fault_line, storm_line, digest_line]),
    )
