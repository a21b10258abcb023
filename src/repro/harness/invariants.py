"""Global safety and liveness invariants for deterministic simulation tests.

FoundationDB-style simulation testing works because the properties being
checked are *global*: not "this unit returned the right value" but "no
matter how faults compose, the system never does X (always-invariants)
and, once the faults stop, it returns to doing Y (eventually-invariants)".
"Protocols to Code" (PAPERS.md) makes the same case for SCION specifically
— forwarding and control-plane safety properties stated explicitly and
checked mechanically.

This module is the invariant registry for the :mod:`repro.harness.crucible`
harness.  Each :class:`Invariant` is a named predicate over a *world* —
the duck-typed bundle of simulator, network, supervisor, daemons, guards,
breakers, and recent served-path observations that the crucible assembles
(see :class:`repro.harness.crucible.CrucibleWorld` for the full protocol).
Checks return ``None`` when the invariant holds or a human-readable detail
string when it does not; the :class:`InvariantChecker` turns details into
:class:`Violation` records with timestamps and keeps the scoreboard.

Adding an invariant is one function plus one :class:`Invariant` entry in
:func:`standard_invariants` (or ``checker.add(...)`` for a local one); the
crucible, the shrinker, and the experiment scoreboard pick it up without
further wiring.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import validate_trace
from repro.resilience.overload import BreakerState

ALWAYS = "always"
EVENTUALLY = "eventually"


@dataclass(frozen=True)
class Violation:
    """One invariant failure, timestamped on the simulated clock."""

    invariant: str
    time_s: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.time_s:.3f}s] {self.invariant}: {self.detail}"


@dataclass(frozen=True)
class Invariant:
    """A named predicate over the crucible world.

    ``check(world, now)`` returns ``None`` when the invariant holds, or a
    detail string describing the violation.  ``kind`` is :data:`ALWAYS`
    (checked continuously, must hold even mid-fault) or
    :data:`EVENTUALLY` (checked once after every fault healed and the
    system had time to settle).
    """

    name: str
    kind: str
    check: Callable[[object, float], Optional[str]]
    description: str = ""


class InvariantChecker:
    """Evaluates a registry of invariants against a world and keeps score."""

    def __init__(self, invariants: Optional[Iterable[Invariant]] = None):
        self.invariants: List[Invariant] = list(
            standard_invariants() if invariants is None else invariants
        )
        names = [inv.name for inv in self.invariants]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate invariant names in {names}")
        self.violations: List[Violation] = []
        self.checks_run = 0

    def _run(self, kind: str, world: object, now: float) -> List[Violation]:
        found: List[Violation] = []
        for inv in self.invariants:
            if inv.kind != kind:
                continue
            self.checks_run += 1
            detail = inv.check(world, now)
            if detail is not None:
                found.append(Violation(inv.name, now, detail))
        self.violations.extend(found)
        return found

    def check_always(self, world: object, now: float) -> List[Violation]:
        return self._run(ALWAYS, world, now)

    def check_eventually(self, world: object, now: float) -> List[Violation]:
        return self._run(EVENTUALLY, world, now)

    def scoreboard(self) -> Dict[str, int]:
        """invariant name -> violation count, zeros included (all-green
        means every value is 0)."""
        board = {inv.name: 0 for inv in self.invariants}
        for violation in self.violations:
            board[violation.invariant] = board.get(violation.invariant, 0) + 1
        return board


# -- always-invariants -------------------------------------------------------------


def _oriented_crossings(path) -> List[Tuple[str, int, str, int]]:
    """The directed wire traversals a packet on ``path`` performs.

    Mirrors the dataplane walk: consecutive records inside the same AS
    (segment joints, shortcut cut-points) cross no link, so a repeated
    ``IA#ifid`` in the flat interface list is *not* evidence of a loop —
    combined paths legitimately keep both the up-segment and down-segment
    record at the crossover AS.
    """
    plan = path.forwarding_plan()
    crossings: List[Tuple[str, int, str, int]] = []
    for record, nxt in zip(plan, plan[1:]):
        if nxt.hop.ia == record.hop.ia:
            continue
        crossings.append(
            (str(record.hop.ia), record.egress, str(nxt.hop.ia), nxt.ingress)
        )
    return crossings


def check_no_forwarding_loops(world, now: float) -> Optional[str]:
    """No served path revisits dataplane state: a forwarding loop means
    the packet makes the same directed link crossing twice, or re-enters
    an AS more often than segment combination allows.

    Legal SCION constructions that a naive "no duplicate interface" check
    miscounts: a shortcut join keeps two records at the cut AS with the
    same oriented interface (never traversed — the walk skips same-AS
    joints), and an up-then-down path may hairpin through its own AS
    once (up to the core, back down through the source).  With at most
    up/core/down segments an AS can appear in at most two separate runs
    of the visit sequence; a third visit means looping traffic.
    """
    for serve in world.served:
        crossings = _oriented_crossings(serve.meta.path)
        if len(set(crossings)) != len(crossings):
            seen = set()
            dup = next(c for c in crossings if c in seen or seen.add(c))
            return (
                f"path {serve.src}->{serve.dst} crosses "
                f"{dup[0]}#{dup[1]}->{dup[2]}#{dup[3]} twice"
            )
        runs: List[str] = []
        for record in serve.meta.path.forwarding_plan():
            ia = str(record.hop.ia)
            if not runs or runs[-1] != ia:
                runs.append(ia)
        counts: Dict[str, int] = {}
        for ia in runs:
            counts[ia] = counts.get(ia, 0) + 1
        worst = max(counts, key=lambda k: counts[k])
        if counts[worst] > 2:
            return (
                f"path {serve.src}->{serve.dst} enters {worst} "
                f"{counts[worst]} times: {runs}"
            )
    return None


def check_clock_monotonic(world, now: float) -> Optional[str]:
    """The simulated clock never runs backwards between checks."""
    high_water = getattr(world, "clock_high_water", None)
    sim_now = world.sim.now
    if high_water is not None and sim_now < high_water:
        return f"sim clock moved backwards: {high_water} -> {sim_now}"
    world.clock_high_water = sim_now
    return None


def check_no_quarantined_served_fresh(world, now: float) -> Optional[str]:
    """A *fresh* (non-stale) served path never crosses an interface that
    was under active revocation quarantine at serve time.

    Stale-served paths are exempt: serving possibly-dead paths marked
    ``stale`` is the documented degraded mode, and callers see the flag.
    """
    for serve in world.served:
        if serve.meta.stale:
            continue
        hit = set(serve.meta.interfaces) & serve.revoked_keys
        if hit:
            return (
                f"fresh path {serve.src}->{serve.dst} served at "
                f"{serve.time_s:.3f}s crosses revoked {sorted(hit)}"
            )
    return None


def check_no_expired_certs_accepted(world, now: float) -> Optional[str]:
    """Every AS control service still holds a certificate valid at ``now``.

    The supervisor's renewal loop exists so certificates never silently
    age out (paper §4.5: day-scale lifetimes force automation); a cert
    that expired mid-run means an expired credential was being accepted.
    """
    supervisor = world.supervisor
    if supervisor is None:
        return None
    unhealthy = [
        str(ia) for ia, ok in supervisor.certificate_health(now).items()
        if not ok
    ]
    if unhealthy:
        return f"expired/unhealthy certificates for {unhealthy}"
    return None


def check_codel_spares_critical(world, now: float) -> Optional[str]:
    """CoDel shedding never drops critical (priority <= 0) work.

    Priority 0 is the toolkit-wide meaning of *critical* (renewals,
    revocation pushes — see :class:`repro.netsim.chaos.Arrival`), so the
    check is against that semantic level, not whatever
    ``critical_priority`` a guard happens to be configured with — a guard
    misconfigured to shed priority 0 is exactly the bug to catch.
    """
    for guard in world.guards:
        shed = [
            (priority, count)
            for priority, count in sorted(guard.shed_by_priority.items())
            if priority <= 0 and count > 0
        ]
        if shed:
            return f"guard {guard.name!r} shed critical work: {shed}"
    return None


def check_stats_non_negative(world, now: float) -> Optional[str]:
    """No counter anywhere has gone negative, and the daemon accounting
    identities hold (``lookups == cache_hits + fetches``,
    ``stale_served <= failed_fetches``)."""
    for name, link in sorted(world.network.topology.links.items()):
        for field in dataclasses.fields(link.stats):
            value = getattr(link.stats, field.name)
            if value < 0:
                return f"link {name} stat {field.name} is negative: {value}"
    for ia, daemon in sorted(world.daemons.items()):
        stats = daemon.stats
        for field in stats.FIELDS:
            value = getattr(stats, field)
            if value < 0:
                return f"daemon {ia} stat {field} is negative: {value}"
        if stats.lookups != stats.cache_hits + stats.fetches:
            return (
                f"daemon {ia} accounting broken: lookups={stats.lookups} "
                f"!= cache_hits={stats.cache_hits} + fetches={stats.fetches}"
            )
        if stats.stale_served > stats.failed_fetches:
            return (
                f"daemon {ia} stale_served={stats.stale_served} exceeds "
                f"failed_fetches={stats.failed_fetches}"
            )
    supervisor = world.supervisor
    if supervisor is not None:
        for field in dataclasses.fields(supervisor.stats):
            value = getattr(supervisor.stats, field.name)
            if value < 0:
                return f"supervisor stat {field.name} is negative: {value}"
    return None


def check_trace_trees_valid(world, now: float) -> Optional[str]:
    """Every recorded trace is structurally sound (parents exist, child
    intervals nest inside parents, no parent-link cycles)."""
    telemetry = world.telemetry
    if telemetry is None or not telemetry.tracer.enabled:
        return None

    by_trace: Dict[str, list] = {}
    for span in telemetry.tracer.spans():
        by_trace.setdefault(span.trace_id, []).append(span)
    for trace_id, spans in by_trace.items():
        problems = validate_trace(spans)
        if problems:
            return f"trace {trace_id} invalid: {problems[0]}"
    return None


# -- security invariants (adversarial worlds) ---------------------------------------
#
# These predicates state what the hardened stack guarantees *while under
# attack* by a Byzantine adversary (:mod:`repro.harness.adversary`).  They
# self-gate on ``world.adversary`` — worlds without one (every legacy
# schedule) return immediately, consume no randomness, and stay out of
# every seeded digest.


def _adversary(world):
    return getattr(world, "adversary", None)


def _stored_beacons(network):
    """Every beacon the control plane currently holds, wherever it lives:
    the shared registry, the per-AS beacon stores, and local up-segment
    tables."""
    snapshot = network.registry.snapshot()
    for table in (snapshot["down"], snapshot["core"]):
        for bucket in table.values():
            yield from bucket.values()
    engine = network.beaconing
    for stores in (engine.core_stores, engine.down_stores):
        for store in stores.values():
            yield from store.all_beacons()
    for _, service in sorted(network.services.items()):
        yield from service.path_server.up_segments


def check_forged_beacon_never_stored(world, now: float) -> Optional[str]:
    """No forged or replayed PCB is ever stored or registered.

    Identity is the origin entry's signature: it binds the signing key and
    the timestamped message, so honest beacons can never collide with a
    tracked forgery (unlike ``seg_id``, which an honest origination at the
    same instant reproduces).  Termination and propagation preserve prefix
    signatures, so poison is traceable wherever it spreads.
    """
    adversary = _adversary(world)
    if adversary is None:
        return None
    poisoned = (
        adversary.forged_beacon_signatures
        | adversary.replayed_beacon_signatures
    )
    if not poisoned:
        return None
    for beacon in _stored_beacons(world.network):
        if beacon.entries[0].signature in poisoned:
            which = (
                "forged"
                if beacon.entries[0].signature
                in adversary.forged_beacon_signatures
                else "replayed"
            )
            return (
                f"{which} beacon claiming origin {beacon.origin_ia} "
                f"(seg_id {beacon.seg_id}) is stored in the control plane"
            )
    return None


def check_forged_revocation_never_quarantines(world, now: float) -> Optional[str]:
    """A revocation not signed by the owning AS never takes effect.

    Checked two ways: none of the adversary's forged tokens is in the
    registry's active set (state), and no forge-revocation attack reported
    success (behaviour) — either alone could miss a partial ingestion.
    """
    adversary = _adversary(world)
    if adversary is None or not adversary.forged_revocations:
        return None
    active = world.network.registry.active_revocations()
    for token in adversary.forged_revocations:
        if token in active:
            return f"forged revocation {token.key} is active in the registry"
    for outcome in adversary.successes("forge-revocation"):
        return (
            f"forge-revocation succeeded against {outcome.target}: "
            f"{outcome.detail}"
        )
    return None


def check_replayed_revocation_ignored(world, now: float) -> Optional[str]:
    """A genuine revocation replayed past its TTL never re-quarantines."""
    adversary = _adversary(world)
    if adversary is None or not adversary.replayed_revocations:
        return None
    active = world.network.registry.active_revocations()
    for token in adversary.replayed_revocations:
        if token in active:
            return (
                f"replayed revocation {token.key} (expired "
                f"{token.expires_at():.3f}) is active in the registry"
            )
    for outcome in adversary.successes("replay-revocation"):
        return (
            f"replay-revocation succeeded against {outcome.target}: "
            f"{outcome.detail}"
        )
    return None


def check_tampered_packet_never_delivered(world, now: float) -> Optional[str]:
    """No packet whose hop fields were tampered with mid-path — MAC bits
    flipped, or a compromised AS inflating its own hop's lifetime — is
    ever delivered end to end."""
    adversary = _adversary(world)
    if adversary is None:
        return None
    for outcome in adversary.successes("tamper-packet"):
        return (
            f"tampered packet delivered {outcome.target}: {outcome.detail}"
        )
    return None


def check_honest_goodput_under_attack(world, now: float) -> Optional[str]:
    """While *only* adversarial faults are active, honest priority-0
    traffic keeps at least ``attack_goodput_floor`` of the no-attack
    baseline — the attack surcharge must not starve honest users.

    Gated on ``benign_faults_active == 0``: with benign faults (crashes,
    link cuts) in flight, degraded goodput is chaos doing its job, not an
    adversarial amplification.
    """
    adversary = _adversary(world)
    if adversary is None:
        return None
    if getattr(world, "attacks_active", 0) <= 0:
        return None
    if getattr(world, "benign_faults_active", 0) > 0:
        return None
    baseline = world.baseline_goodput
    if not baseline:
        return None
    floor_fraction = getattr(world, "attack_goodput_floor", 0.8)
    goodput = world.measure_goodput(now)
    floor = floor_fraction * baseline
    if goodput < floor:
        return (
            f"honest goodput {goodput:.3f} under attack below "
            f"{floor_fraction:.0%} of no-attack baseline {baseline:.3f}"
        )
    return None


def check_no_honest_as_isolated(world, now: float) -> Optional[str]:
    """While *only* adversarial faults are active, every honest workload
    pair still has control-plane paths: a lying neighbor (forged beacons,
    fake revocations) must never disconnect ASes it does not sit between.
    """
    adversary = _adversary(world)
    if adversary is None:
        return None
    if getattr(world, "attacks_active", 0) <= 0:
        return None
    if getattr(world, "benign_faults_active", 0) > 0:
        return None
    for src, dst in world.workload_pairs:
        if not world.network.paths(src, dst, refresh=True):
            return (
                f"honest pair {src}->{dst} has no control-plane paths "
                "under adversarial faults alone"
            )
    return None


# -- eventually-invariants ---------------------------------------------------------


def check_beacon_reconvergence(world, now: float) -> Optional[str]:
    """After every fault healed: the control plane has paths for every
    workload pair again."""
    for src, dst in world.workload_pairs:
        metas = world.network.paths(src, dst, refresh=True, now=now)
        if not metas:
            return f"no paths for {src}->{dst} after faults healed"
    return None


def check_lookup_availability_restored(world, now: float) -> Optional[str]:
    """After every fault healed: end-host lookups are served for every
    workload pair — the supervisor's view and the daemon's agree."""
    supervisor = world.supervisor
    for src, dst in world.workload_pairs:
        if supervisor is not None and not supervisor.lookup(src, dst, now):
            return f"supervisor lookup {src}->{dst} still failing"
        daemon = world.daemons.get(src)
        if daemon is not None and not daemon.lookup(dst, now=now):
            return f"daemon lookup {src}->{dst} still failing"
    return None


def check_goodput_restored(world, now: float) -> Optional[str]:
    """After every fault healed: probe goodput over the workload pairs is
    back to at least ``goodput_floor`` of the pre-fault baseline."""
    baseline = world.baseline_goodput
    if not baseline:
        return None
    goodput = world.measure_goodput(now)
    floor = world.goodput_floor * baseline
    if goodput < floor:
        return (
            f"goodput {goodput:.3f} below {world.goodput_floor:.0%} of "
            f"pre-fault baseline {baseline:.3f}"
        )
    return None


def check_no_stuck_open_breakers(world, now: float) -> Optional[str]:
    """After every fault healed: no circuit breaker is stuck OPEN.

    ``allow(now)`` is called first so a breaker whose reset timeout has
    elapsed may legally transition to half-open — only a breaker that
    *cannot* leave OPEN (or re-opened against a healthy backend) fails.
    """
    breakers = world.breakers
    if isinstance(breakers, dict):
        breakers = breakers.values()
    for breaker in breakers:
        breaker.allow(now)
        if breaker.state is BreakerState.OPEN:
            return (
                f"breaker {breaker.name!r} still OPEN after faults healed "
                f"(transitions: {breaker.transitions[-3:]})"
            )
    return None


def standard_invariants() -> List[Invariant]:
    """The default registry: every global property the resilience stack
    (PRs 2-7) claims, stated as a checkable predicate."""
    return [
        Invariant(
            "no-forwarding-loops", ALWAYS, check_no_forwarding_loops,
            "served paths never repeat a global interface",
        ),
        Invariant(
            "clock-monotonic", ALWAYS, check_clock_monotonic,
            "the simulated clock never runs backwards",
        ),
        Invariant(
            "quarantine-respected", ALWAYS, check_no_quarantined_served_fresh,
            "fresh paths never cross actively revoked interfaces",
        ),
        Invariant(
            "certs-valid", ALWAYS, check_no_expired_certs_accepted,
            "no expired certificate is accepted/held by a control service",
        ),
        Invariant(
            "codel-spares-critical", ALWAYS, check_codel_spares_critical,
            "overload shedding never drops priority-0 work",
        ),
        Invariant(
            "stats-non-negative", ALWAYS, check_stats_non_negative,
            "all counters stay non-negative and accounting identities hold",
        ),
        Invariant(
            "trace-trees-valid", ALWAYS, check_trace_trees_valid,
            "telemetry trace trees remain structurally sound",
        ),
        Invariant(
            "security-forged-beacon-unregistered", ALWAYS,
            check_forged_beacon_never_stored,
            "forged/replayed PCBs are never stored or registered",
        ),
        Invariant(
            "security-forged-revocation-rejected", ALWAYS,
            check_forged_revocation_never_quarantines,
            "revocations not signed by the owning AS never quarantine",
        ),
        Invariant(
            "security-replayed-revocation-ignored", ALWAYS,
            check_replayed_revocation_ignored,
            "genuine revocations replayed past their TTL never re-quarantine",
        ),
        Invariant(
            "security-tamper-never-delivered", ALWAYS,
            check_tampered_packet_never_delivered,
            "packets with tampered hop fields are never delivered",
        ),
        Invariant(
            "security-honest-goodput-under-attack", ALWAYS,
            check_honest_goodput_under_attack,
            "honest traffic keeps a goodput floor while under attack alone",
        ),
        Invariant(
            "security-no-honest-as-isolated", ALWAYS,
            check_no_honest_as_isolated,
            "a lying neighbor cannot isolate honest ASes from each other",
        ),
        Invariant(
            "beacon-reconvergence", EVENTUALLY, check_beacon_reconvergence,
            "paths exist for every workload pair after faults heal",
        ),
        Invariant(
            "lookup-availability", EVENTUALLY,
            check_lookup_availability_restored,
            "end-host lookups are served again after faults heal",
        ),
        Invariant(
            "goodput-restored", EVENTUALLY, check_goodput_restored,
            "probe goodput returns to a fraction of the pre-fault baseline",
        ),
        Invariant(
            "no-stuck-breakers", EVENTUALLY, check_no_stuck_open_breakers,
            "no circuit breaker is stuck OPEN after faults heal",
        ),
    ]
