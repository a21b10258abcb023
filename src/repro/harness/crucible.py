"""The crucible: a deterministic simulation-testing (DST) harness.

FoundationDB-style testing for the whole resilience stack: a seeded
generator produces *composite* fault schedules drawing on every fault
class the chaos layer knows — link outages, probe loss/corruption,
network partitions (symmetric and asymmetric), control-service crashes,
CA outages, and load surges — and runs each schedule against a fully
assembled world (network, supervisor, daemons, monitors, overload guards,
breakers, telemetry) while a :class:`~repro.harness.invariants
.InvariantChecker` continuously evaluates global always-invariants and,
after every fault has healed, the eventually-invariants.

Everything is determined by the :class:`Schedule`: same schedule + same
``bug`` flag => byte-identical fault stream (``RunResult.fault_digest``).
That determinism is what makes the last piece work: when an invariant
fails, :func:`shrink_schedule` delta-debugs (ddmin) the fault list down
to a minimal subsequence that still reproduces the same violation, and
:func:`save_artifact`/:func:`replay_artifact` persist it as a JSON
reproducer that replays exactly from its seed.

The ``bug`` parameter threads test-only defect injection into the world
so the harness itself can be validated end to end (a checker that never
fires is worse than none):

* ``"shed-critical"`` — overload guards are built with
  ``critical_priority=-1``, so CoDel sheds priority-0 (critical) work
  under a load surge; the ``codel-spares-critical`` invariant must catch
  it and the shrinker must reduce the schedule to (essentially) the
  surge that triggers it.
* ``"trust-revocations"`` — daemons and path servers get an accept-all
  revocation check in place of the network's (the pre-hardening
  behaviour); an adversarial schedule's forged/replayed revocations then
  poison the quarantine and the ``security-*`` invariants must catch it.

Adversarial faults (:data:`ADVERSARY_KINDS`, drawn by
:func:`generate_adversarial_schedule`) live in a *separate* kind tuple:
the default generator never draws them, so every legacy seeded schedule —
and its fault digest — is byte-identical to before the adversary existed.
The Byzantine attacks themselves come from
:class:`repro.harness.adversary.ByzantineAdversary`, which owns a private
RNG for the same reason.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.supervisor import Supervisor
from repro.core.monitoring import ConnectivityMonitor
from repro.endhost.daemon import Daemon
from repro.errors import ReproError
from repro.harness.adversary import ByzantineAdversary
from repro.harness.invariants import InvariantChecker, Violation
from repro.netsim.chaos import FaultInjector, FaultProfile, LoadSurge
from repro.netsim.simulator import Simulator
from repro.obs import FlightRecorder, Profiler, Slo, SloEngine, Telemetry
from repro.resilience.overload import CircuitBreaker, OverloadGuard, OverloadRejected
from repro.sciera.topology_data import build_sciera_topology
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork
from repro.scion.topology import (
    GlobalTopology,
    LinkType,
    random_topology,
)


class CrucibleError(ReproError):
    """Raised for invalid schedules, artifacts, or shrink requests."""


#: Every *benign* fault kind the default generator composes.  Adversarial
#: kinds are deliberately NOT in this tuple: appending them would shift
#: ``rng.choice(kinds)`` for every legacy seed and silently change every
#: pinned schedule digest.
FAULT_KINDS = (
    "link-outage",
    "probe-chaos",
    "partition",
    "service-crash",
    "ca-outage",
    "load-surge",
)

#: Byzantine fault kinds, opt-in via :func:`generate_adversarial_schedule`
#: (or an explicit ``kinds=`` argument), kept out of :data:`FAULT_KINDS` so
#: legacy seeds draw the same schedules.  Beacon forgery and PCB replay are
#: not kinds yet: adding them here would shift ``rng.choice`` for every
#: adversarial seed; they live in the ``adversary`` experiment.
ADVERSARY_KINDS = (
    "adv-forge-revocation",
    "adv-replay-revocation",
    "adv-tamper-packet",
    "adv-flood",
)

ALL_FAULT_KINDS = FAULT_KINDS + ADVERSARY_KINDS

#: Workload/invariant-check cadence inside a run.
TICK_S = 0.5
#: Short TTLs so revocation quarantine and down-marks heal within a run.
REVOCATION_TTL_S = 2.0
DAEMON_CACHE_TTL_S = 1.0
#: Length of a generated schedule's fault window.
DURATION_S = 8.0
#: Fault-free tail of a generated schedule, for the eventually-invariants.
SETTLE_S = 5.0
#: Schedule runs one shrink may spend.
MAX_SHRINK_RUNS = 64


# -- schedules ---------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One fault in a schedule, with seed-resolved targeting.

    Concrete targets (which link, which service, which AS subset) are
    resolved *at apply time* from ``index`` against the world's sorted
    candidate lists, so a spec stays meaningful when the shrinker removes
    its neighbours and when the same schedule replays on a rebuilt world.
    """

    kind: str
    start_s: float          # relative to run start
    end_s: float            # heal time; == start_s for self-healing faults
    index: int = 0          # deterministic target selector
    param: float = 0.0      # generic intensity knob in [0, 1)
    mode: str = ""          # partition mode; "" elsewhere
    size: int = 1           # partition subset size

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise CrucibleError(f"unknown fault kind {self.kind!r}")
        if self.end_s < self.start_s:
            raise CrucibleError("fault must not heal before it starts")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        return cls(**data)


@dataclass(frozen=True)
class Schedule:
    """A complete, self-describing crucible run: everything needed to
    rebuild the world and replay the fault stream byte-identically."""

    topology: str           # key into TOPOLOGIES
    seed: int
    duration_s: float
    settle_s: float
    faults: Tuple[FaultSpec, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "settle_s": self.settle_s,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Schedule":
        return cls(
            topology=data["topology"],
            seed=data["seed"],
            duration_s=data["duration_s"],
            settle_s=data["settle_s"],
            faults=tuple(
                FaultSpec.from_dict(spec) for spec in data["faults"]
            ),
        )

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def generate_schedule(
    seed: int,
    topology: str = "mesh5",
    n_faults: int = 4,
    kinds: Tuple[str, ...] = FAULT_KINDS,
    ensure_kind: Optional[str] = None,
) -> Schedule:
    """A random composite fault schedule of :data:`DURATION_S`, fully
    determined by ``seed``.

    Faults start in the first ~60% of the run and heal by 85% of it, so
    the settle window is fault-free and the eventually-invariants are
    checked against a system that was *given the chance* to recover.
    ``ensure_kind`` forces at least one fault of that kind (used by the
    shrink demo, which needs a load surge in the mix).
    """
    if n_faults < 1:
        raise CrucibleError("n_faults must be >= 1")
    for kind in kinds:
        if kind not in ALL_FAULT_KINDS:
            raise CrucibleError(f"unknown fault kind {kind!r}")
    # Seed with a string so the stream is independent of the process hash
    # seed and distinct per (seed, topology).
    rng = random.Random(f"crucible:{seed}:{topology}")

    def draw(kind: str) -> FaultSpec:
        start = rng.uniform(0.08, 0.60) * DURATION_S
        if kind == "service-crash":
            end = start  # self-healing: the supervisor restarts it
        else:
            length = rng.uniform(0.8, max(1.0, 0.30 * DURATION_S))
            end = min(start + length, 0.85 * DURATION_S)
            end = max(end, start + 0.4)
        return FaultSpec(
            kind=kind,
            start_s=round(start, 3),
            end_s=round(end, 3),
            index=rng.randrange(1 << 16),
            param=rng.random(),
            mode=(rng.choice(("symmetric", "inbound", "outbound"))
                  if kind == "partition" else ""),
            size=rng.randint(1, 2) if kind == "partition" else 1,
        )

    faults = [draw(rng.choice(kinds)) for _ in range(n_faults)]
    if ensure_kind is not None and not any(
        spec.kind == ensure_kind for spec in faults
    ):
        faults[-1] = draw(ensure_kind)
    faults.sort(key=lambda spec: (spec.start_s, spec.kind, spec.index))
    return Schedule(
        topology=topology,
        seed=seed,
        duration_s=DURATION_S,
        settle_s=SETTLE_S,
        faults=tuple(faults),
    )


def generate_adversarial_schedule(
    seed: int, ensure_kind: Optional[str] = None,
) -> Schedule:
    """A five-fault ``mesh5`` schedule mixing benign chaos with Byzantine
    attacks.

    Same generator, wider kind pool (:data:`ALL_FAULT_KINDS`): attacks
    land *between* crashes and partitions, which is exactly when a
    verification gap would hurt most.  ``ensure_kind`` (default: at least
    one adversarial fault of some kind) lets the shrink demo guarantee the
    attack it is hunting is present.
    """
    schedule = generate_schedule(
        seed, n_faults=5, kinds=ALL_FAULT_KINDS, ensure_kind=ensure_kind,
    )
    if ensure_kind is None and not any(
        spec.kind in ADVERSARY_KINDS for spec in schedule.faults
    ):
        # Re-draw with a forced adversarial fault so "adversarial
        # schedule" always means what it says.
        schedule = generate_schedule(
            seed, n_faults=5, kinds=ALL_FAULT_KINDS,
            ensure_kind=ADVERSARY_KINDS[seed % len(ADVERSARY_KINDS)],
        )
    return schedule


# -- topology catalog --------------------------------------------------------------


def _mesh5() -> GlobalTopology:
    """A 5-AS mini-SCIERA: two meshed cores (parallel core links), three
    multi-homed leaves, one peering — the fast topology for tests."""
    topo = GlobalTopology()
    core1, core2 = IA(71, 1), IA(71, 2)
    leaf1, leaf2, leaf3 = IA(71, 100), IA(71, 200), IA(71, 300)
    topo.add_as(core1, is_core=True, name="core-1")
    topo.add_as(core2, is_core=True, name="core-2")
    for leaf, name in ((leaf1, "leaf-1"), (leaf2, "leaf-2"), (leaf3, "leaf-3")):
        topo.add_as(leaf, name=name)
    topo.add_link(core1, core2, LinkType.CORE, 0.010)
    topo.add_link(core1, core2, LinkType.CORE, 0.014)
    topo.add_link(leaf1, core1, LinkType.PARENT, 0.004)
    topo.add_link(leaf1, core2, LinkType.PARENT, 0.006)
    topo.add_link(leaf2, core1, LinkType.PARENT, 0.005)
    topo.add_link(leaf2, core2, LinkType.PARENT, 0.007)
    topo.add_link(leaf3, core2, LinkType.PARENT, 0.003)
    topo.add_link(leaf1, leaf3, LinkType.PEER, 0.002)
    topo.validate()
    return topo


def _fig1(seed: int) -> GlobalTopology:
    return build_sciera_topology()


#: topology key -> builder(seed).  The seed only matters for the random
#: generator entries; fixed topologies ignore it.
TOPOLOGIES: Dict[str, Callable[[int], GlobalTopology]] = {
    "mesh5": lambda seed: _mesh5(),
    "fig1": _fig1,
    "rand64": lambda seed: random_topology(64, seed=seed),
}


def _workload_pairs(topology: GlobalTopology) -> List[Tuple[IA, IA]]:
    """Deterministic measurement pairs: leaf-to-leaf spans and a
    leaf-to-core, spread across the topology."""
    cores = topology.core_ases()
    leaves = sorted(
        ia for ia, topo in topology.ases.items() if not topo.is_core
    )
    candidates: List[Tuple[IA, IA]] = []
    if leaves and len(leaves) >= 2:
        candidates.append((leaves[0], leaves[-1]))
    if leaves and cores:
        candidates.append((leaves[0], cores[0]))
    if len(leaves) >= 3:
        candidates.append((leaves[1], leaves[len(leaves) // 2]))
    if not leaves and len(cores) >= 2:
        candidates.append((cores[0], cores[-1]))
    pairs: List[Tuple[IA, IA]] = []
    for src, dst in candidates:
        if src != dst and (src, dst) not in pairs:
            pairs.append((src, dst))
    if not pairs:
        raise CrucibleError("topology too small for a workload")
    return pairs


def measure_goodput(
    network: ScionNetwork, pairs: Sequence[Tuple[IA, IA]], now: float
) -> float:
    """Fraction of ``pairs`` with a working, deliverable path at ``now``.

    Goodput is a *data-plane* property: the lookup goes through
    admission at critical priority, and if the guard still refuses
    (queue full under a request flood) we fall back to an
    admission-free registry view — honest endpoints that already hold
    paths keep transferring while the control plane sheds load.
    Control-plane DoS pressure is accounted by the overload
    invariants, not this measurement.
    """
    ok = 0
    for src, dst in pairs:
        try:
            metas = network.paths(src, dst, refresh=True, now=now, priority=0)
        except OverloadRejected:
            metas = network.paths(src, dst, refresh=True)
        for meta in metas:
            if network.dataplane.probe(meta.path, now).success:
                ok += 1
                break
    return ok / len(pairs)


# -- the world ---------------------------------------------------------------------


@dataclass(frozen=True)
class ServedPath:
    """One path handed to an application, with the quarantine state that
    was active at serve time (for the quarantine-respected invariant)."""

    time_s: float
    src: IA
    dst: IA
    meta: Any               # PathMeta
    revoked_keys: frozenset


class CrucibleWorld:
    """The fully assembled system under test for one schedule.

    This is the *world* object the invariants in
    :mod:`repro.harness.invariants` are written against: ``network``,
    ``sim``, ``supervisor``, ``daemons``, ``guards``, ``breakers``,
    ``served`` (recent :class:`ServedPath` observations),
    ``workload_pairs``, ``baseline_goodput``/``goodput_floor``/
    ``measure_goodput``, and ``telemetry``.  Everything is built fresh
    from the schedule, so replaying a schedule replays the world.
    """

    goodput_floor = 0.9

    def __init__(
        self,
        schedule: Schedule,
        bug: Optional[str] = None,
        flight: Optional[FlightRecorder] = None,
        profiler: Optional[Profiler] = None,
        slos: Optional[Tuple[Slo, ...]] = None,
    ):
        builder = TOPOLOGIES.get(schedule.topology)
        if builder is None:
            raise CrucibleError(
                f"unknown topology {schedule.topology!r}; "
                f"known: {sorted(TOPOLOGIES)}"
            )
        self.schedule = schedule
        self.bug = bug
        self.telemetry = Telemetry()
        # Opt-in observability: with all three absent (the default, and
        # the configuration every pinned digest is computed with) the
        # world behaves byte-identically to a bare one — the hooks cost
        # None checks and consume no randomness.
        self.flight = flight.attach(self.telemetry) if flight is not None \
            else None
        if profiler is not None:
            self.telemetry.profiler = profiler
        self.slo: Optional[SloEngine] = None
        if slos is not None:
            self.slo = SloEngine(
                metrics=self.telemetry.metrics, slos=slos,
                events=self.telemetry.events,
            )
            self._goodput_gauge = self.telemetry.metrics.gauge(
                "crucible_goodput_fraction",
                "Fraction of workload pairs with a working path.",
            )
        topology = builder(schedule.seed)
        self.network = ScionNetwork(
            topology, seed=schedule.seed, telemetry=self.telemetry
        )
        # Short TTLs: quarantine and down-marks must lift inside the
        # settle window, or the eventually-invariants would test TTL
        # arithmetic instead of recovery.
        self.network.dataplane.revocation_ttl_s = REVOCATION_TTL_S
        self.sim = Simulator(start_time=float(self.network.timestamp))
        if profiler is not None:
            self.sim.profiler = profiler
        self.injector = FaultInjector(
            seed=schedule.seed ^ 0xC47C1B1E, event_log=self.telemetry.events
        )
        self.supervisor = Supervisor(self.network, telemetry=self.telemetry)
        self.workload_pairs = _workload_pairs(topology)
        critical = -1 if bug == "shed-critical" else 0
        self.guards: List[OverloadGuard] = []
        self.daemons: Dict[IA, Daemon] = {}
        self.breakers: Dict[IA, CircuitBreaker] = {}
        for src, _ in self.workload_pairs:
            if src in self.daemons:
                continue
            guard = OverloadGuard(
                service_time_s=0.002,
                name=f"ps:{src}",
                critical_priority=critical,
                telemetry=self.telemetry,
            )
            self.network.services[src].path_server.guard = guard
            self.guards.append(guard)
            self.daemons[src] = Daemon(
                self.network, src,
                cache_ttl_s=DAEMON_CACHE_TTL_S,
                down_interface_ttl_s=REVOCATION_TTL_S,
                telemetry=self.telemetry,
            )
            self.breakers[src] = CircuitBreaker(
                name=f"lookup:{src}", failure_threshold=3,
                reset_timeout_s=1.0, telemetry=self.telemetry,
            )
        if bug == "trust-revocations":
            # The pre-hardening ingestion behaviour: a check that accepts
            # every revocation, forged or replayed.  Adversarial schedules
            # must make the security invariants catch this.
            def trust_all(revocation, now):
                return None

            for service in self.network.services.values():
                service.path_server.check_revocation = trust_all
            for daemon in self.daemons.values():
                daemon.check_revocation = trust_all
        #: The resident Byzantine actor.  Its RNG and event stream are
        #: fully separate from the injector's, so worlds that never draw
        #: an adversarial fault behave (and digest) exactly as before.
        self.adversary = ByzantineAdversary(
            self.network,
            seed=schedule.seed ^ 0xAD7E65A1,
            event_log=self.telemetry.events,
        )
        #: Attack/benign fault windows currently open — the gates for the
        #: under-attack security invariants (goodput floor, no isolation).
        self.attacks_active = 0
        self.benign_faults_active = 0
        self.attack_goodput_floor = 0.8
        vantage, target = self.workload_pairs[0]
        self.monitors = [
            ConnectivityMonitor(
                self.network, vantage,
                [dst for _, dst in self.workload_pairs],
                probe_interval_s=2 * TICK_S, telemetry=self.telemetry,
            ),
            # The reverse vantage: under an asymmetric partition both
            # monitors see the same incident (the echo crosses the cut in
            # one direction or the other) — the alert-dedup case.
            ConnectivityMonitor(
                self.network, target, [vantage],
                probe_interval_s=2 * TICK_S, telemetry=self.telemetry,
            ),
        ]
        #: Recent served paths; cleared after each always-check.
        self.served: List[ServedPath] = []
        self.clock_high_water = self.sim.now
        self.baseline_goodput = 0.0
        # Overlap-safe fault state: link and CA outages refcount.
        self._link_down_counts: Dict[str, int] = {}
        self._ca_down_counts: Dict[int, int] = {}
        self._faulty_cas: Dict[int, Any] = {}

    # -- chaos plumbing ----------------------------------------------------------

    def faulty_ca(self, isd: int):
        ca = self._faulty_cas.get(isd)
        if ca is None:
            ca = self.injector.wrap_ca(
                self.supervisor.cas[isd], FaultProfile(), name=f"ca:{isd}"
            )
            self.supervisor.set_ca(isd, ca)
            self._faulty_cas[isd] = ca
        return ca

    # -- workload ----------------------------------------------------------------

    def measure_goodput(self, now: float) -> float:
        """Fraction of workload pairs with a working path right now."""
        return measure_goodput(self.network, self.workload_pairs, now)

    def tick(self, checker: InvariantChecker, now: float) -> None:
        """One workload round: lookups, probes, SCMP feedback, breaker
        accounting, availability sampling, then the always-invariants."""
        registry = self.network.registry
        revoked = frozenset(
            rev.key for rev in registry.active_revocations(now=now)
        )
        for src, dst in self.workload_pairs:
            daemon = self.daemons[src]
            breaker = self.breakers[src]
            if not breaker.allow(now):
                continue
            metas = daemon.lookup(dst, now=now, deadline_s=now + 0.5)
            for meta in metas[:2]:
                self.served.append(ServedPath(now, src, dst, meta, revoked))
            delivered = False
            if metas:
                result = self.network.dataplane.probe(metas[0].path, now)
                delivered = result.success
                if not result.success and result.scmp is not None:
                    daemon.handle_scmp(
                        result.scmp, now=now, revocation=result.revocation
                    )
            if delivered:
                breaker.record_success(now)
            else:
                breaker.record_failure(now)
        src, dst = self.workload_pairs[0]
        self.supervisor.lookup(src, dst, now)
        checker.check_always(self, now)
        self.served.clear()
        # Second-tier observability, all opt-in: the SLO engine samples
        # its objectives (goodput is measured once more for the gauge —
        # path lookups are deterministic, so the extra reads change no
        # digest), and the flight recorder diffs the metric registry.
        if self.slo is not None:
            self._goodput_gauge.set(self.measure_goodput(now))
            self.slo.sample(now)
        if self.flight is not None:
            self.flight.tick(now)

    def stop(self) -> None:
        for monitor in self.monitors:
            monitor.stop()


# -- fault application -------------------------------------------------------------

#: How long a benign fault's *effects* linger past its heal time — the
#: window stays counted in ``benign_faults_active`` so the under-attack
#: security invariants do not blame the adversary for chaos still
#: draining (quarantine TTLs after a link outage, supervisor restart lag
#: after a crash).
_BENIGN_LINGER_S = {
    "link-outage": REVOCATION_TTL_S,
    "partition": REVOCATION_TTL_S,
    "service-crash": 3.0,
    "probe-chaos": 0.5,
    "ca-outage": 0.5,
    "load-surge": 0.5,
}


def _apply_adversarial_fault(
    world: CrucibleWorld, spec: FaultSpec, fault_id: int
) -> None:
    """Mount one Byzantine attack and hold its window open until heal."""
    sim = world.sim
    now = sim.now
    t0 = float(world.network.timestamp)
    heal_at = t0 + spec.end_s
    adversary = world.adversary
    injector = world.injector
    topology = world.network.topology
    world.attacks_active += 1

    def close_window() -> None:
        world.attacks_active -= 1

    sim.schedule_at(max(heal_at, now), close_window)
    if spec.kind in ("adv-forge-revocation", "adv-replay-revocation"):
        ases = sorted(topology.ases)
        victim = ases[spec.index % len(ases)]
        ifids = sorted(topology.get(victim).interfaces)
        ifid = ifids[spec.index % len(ifids)]
        daemon = world.daemons[world.workload_pairs[0][0]]
        injector.record(
            now, f"{victim}#{ifid}", spec.kind, "byzantine token injected"
        )
        if spec.kind == "adv-forge-revocation":
            adversary.forge_revocation(victim, ifid, now, daemon=daemon)
        else:
            adversary.replay_revocation(victim, ifid, now, daemon=daemon)
    elif spec.kind == "adv-tamper-packet":
        src, dst = world.workload_pairs[spec.index % len(world.workload_pairs)]
        mode = "inflate" if spec.param >= 0.5 else "mac"
        injector.record(
            now, f"{src}->{dst}", spec.kind, f"on-path tamper mode={mode}"
        )
        adversary.tamper_packet(src, dst, now, mode=mode)
    elif spec.kind == "adv-flood":
        guard = world.guards[spec.index % len(world.guards)]
        requests = 150 + int(300 * spec.param)
        injector.record(
            now, guard.name, spec.kind, f"{requests} spoofed requests"
        )
        adversary.flood_guard(
            guard, now, target=guard.name, requests=requests,
            duration_s=max(0.4, spec.end_s - spec.start_s),
        )
    else:  # pragma: no cover - dispatcher checks membership first
        raise CrucibleError(f"unknown adversarial fault kind {spec.kind!r}")


def _apply_fault(world: CrucibleWorld, spec: FaultSpec, fault_id: int) -> None:
    """Start one fault at its absolute time and schedule its heal."""
    sim = world.sim
    now = sim.now
    t0 = float(world.network.timestamp)
    heal_at = t0 + spec.end_s
    injector = world.injector
    if spec.kind in ADVERSARY_KINDS:
        _apply_adversarial_fault(world, spec, fault_id)
        return
    world.benign_faults_active += 1

    def benign_window_closed() -> None:
        world.benign_faults_active -= 1

    sim.schedule_at(
        max(now, heal_at + _BENIGN_LINGER_S[spec.kind]), benign_window_closed
    )
    if spec.kind == "link-outage":
        names = sorted(world.network.topology.links)
        name = names[spec.index % len(names)]
        counts = world._link_down_counts
        if counts.get(name, 0) == 0:
            world.network.set_link_state(name, False)
            injector.record(now, name, "link-down", "crucible outage")
        counts[name] = counts.get(name, 0) + 1

        def heal() -> None:
            counts[name] -= 1
            if counts[name] == 0:
                world.network.set_link_state(name, True)
                injector.record(sim.now, name, "link-up", "crucible heal")

        sim.schedule_at(heal_at, heal)
    elif spec.kind == "probe-chaos":
        profile = FaultProfile(
            loss=0.05 + 0.25 * spec.param,
            corrupt=0.05 * spec.param,
        )
        target = f"probe-chaos#{fault_id}"
        heal = injector.wrap_dataplane(world.network.dataplane, profile, target)
        injector.record(now, target, "loss", f"window open p={profile.loss:.3f}")
        sim.schedule_at(heal_at, heal)
    elif spec.kind == "partition":
        candidates = sorted(
            ia for ia, topo in world.network.topology.ases.items()
            if not topo.is_core
        ) or sorted(world.network.topology.ases)
        rng = random.Random(f"partition:{world.schedule.seed}:{spec.index}")
        subset = rng.sample(candidates, min(spec.size, len(candidates)))
        partition = injector.partition(
            world.network.topology, subset, now, mode=spec.mode or "symmetric"
        )
        sim.schedule_at(heal_at, partition.heal, heal_at)
    elif spec.kind == "service-crash":
        names = world.supervisor.services()
        name = names[spec.index % len(names)]
        injector.crash_service(world.supervisor, name, now, "crucible crash")
        # No heal event: the supervisor detects and restarts it.
    elif spec.kind == "ca-outage":
        isds = sorted(world.network.isd_trust)
        isd = isds[spec.index % len(isds)]
        ca = world.faulty_ca(isd)
        counts = world._ca_down_counts
        if counts.get(isd, 0) == 0:
            ca.set_down(True, now)
        counts[isd] = counts.get(isd, 0) + 1

        def heal_ca() -> None:
            counts[isd] -= 1
            if counts[isd] == 0:
                ca.set_down(False, sim.now)

        sim.schedule_at(heal_at, heal_ca)
    elif spec.kind == "load-surge":
        guard = world.guards[spec.index % len(world.guards)]
        window_s = max(0.4, spec.end_s - spec.start_s)
        surge = LoadSurge(
            baseline_rps=250.0,
            surge_multiplier=3.0 + 5.0 * spec.param,
            surge_start_s=0.0,
            surge_end_s=window_s,
            high_priority_fraction=0.25,
            seed=world.schedule.seed ^ (0x50B6E << 4) ^ spec.index,
            name=f"surge:{guard.name}",
        )
        injector.record(now, surge.name, "load-surge-start",
                        f"x{surge.surge_multiplier:.2f} offered load")
        for arrival in surge.arrivals(window_s):
            at = now + arrival.time_s
            sim.schedule_at(at, guard.offer, at, None, arrival.priority)
        injector.record(heal_at, surge.name, "load-surge-end",
                        "back to baseline")
    else:  # pragma: no cover - FaultSpec validates kinds
        raise CrucibleError(f"unknown fault kind {spec.kind!r}")


# -- running -----------------------------------------------------------------------


@dataclass
class RunResult:
    """Outcome of one schedule run."""

    schedule: Schedule
    violations: List[Violation]
    scoreboard: Dict[str, int]
    fault_digest: str
    fault_events: int
    checks_run: int
    bug: Optional[str] = None
    #: The flight recorder's black box, dumped when a run with an
    #: attached recorder ends in violation (None otherwise).
    flight_artifact: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def violated_names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for violation in self.violations:
            seen.setdefault(violation.invariant, None)
        return list(seen)


def default_crucible_slos() -> Tuple[Slo, ...]:
    """The crucible's service levels, over instruments the world already
    exports: daemon lookup availability (failed fetches burn budget),
    path-server lookup p-latency, and the workload goodput floor."""
    return (
        Slo(
            name="lookup-availability", objective=0.99, kind="ratio",
            metric="daemon_lookups_total",
            bad_metric="daemon_failed_fetches_total",
        ),
        Slo(
            name="lookup-latency", objective=0.95, kind="latency",
            metric="pathserver_lookup_latency_seconds", threshold=0.050,
        ),
        Slo(
            name="goodput-floor", objective=0.9, kind="gauge",
            metric="crucible_goodput_fraction",
            threshold=CrucibleWorld.goodput_floor,
        ),
    )


def run_schedule(
    schedule: Schedule,
    bug: Optional[str] = None,
    flight: Optional[FlightRecorder] = None,
    profiler: Optional[Profiler] = None,
    slos: Optional[Tuple[Slo, ...]] = None,
) -> RunResult:
    """Build a fresh world from the schedule and run it to completion.

    The fresh world is what makes replay exact: nothing leaks between
    runs, so two calls with equal ``(schedule, bug)`` produce the same
    violations and the same ``fault_digest``.

    ``flight``, ``profiler``, and ``slos`` attach the opt-in second-tier
    observability (crash flight recorder, continuous profiler, SLO
    burn-rate engine).  None of them consume randomness or perturb the
    event schedule, so the fault digest is unchanged either way; when a
    recorder is attached and the run ends in violation, the black box is
    dumped into ``RunResult.flight_artifact``.
    """
    checker = InvariantChecker()
    world = CrucibleWorld(
        schedule, bug=bug, flight=flight, profiler=profiler, slos=slos
    )
    sim = world.sim
    t0 = sim.now
    end = t0 + schedule.duration_s + schedule.settle_s
    world.baseline_goodput = world.measure_goodput(t0)
    for fault_id, spec in enumerate(schedule.faults):
        sim.schedule_at(
            t0 + spec.start_s, _apply_fault, world, spec, fault_id
        )
    ticks = int(math.floor((schedule.duration_s + schedule.settle_s) / TICK_S))
    for k in range(1, ticks + 1):
        at = t0 + k * TICK_S
        sim.schedule_at(at, world.tick, checker, at)
    world.supervisor.schedule_health_checks(sim, end)
    for monitor in world.monitors:
        monitor.start(sim)
    sim.run(until=end)
    world.stop()
    checker.check_eventually(world, sim.now)
    violations = list(checker.violations)
    flight_artifact = None
    if world.flight is not None and violations:
        for violation in violations:
            world.flight.trigger(
                violation.time_s, "invariant", violation.invariant,
                violation.detail,
            )
        flight_artifact = world.flight.dump(
            reason="invariant-violation",
            now=sim.now,
            context={
                "schedule_digest": schedule.digest(),
                "bug": bug,
                "violated": [v.invariant for v in violations],
                "fault_digest": world.injector.event_digest(),
            },
        )
    return RunResult(
        schedule=schedule,
        violations=violations,
        scoreboard=checker.scoreboard(),
        fault_digest=world.injector.event_digest(),
        fault_events=len(world.injector.events),
        checks_run=checker.checks_run,
        bug=bug,
        flight_artifact=flight_artifact,
    )


# -- shrinking ---------------------------------------------------------------------


@dataclass
class ShrinkResult:
    """Outcome of delta-debugging a failing schedule."""

    schedule: Schedule          # the minimal reproducer
    target: Tuple[str, ...]     # invariant names it still violates
    runs: int                   # schedule executions spent shrinking
    original_faults: int
    shrunk_faults: int


def shrink_schedule(
    schedule: Schedule,
    bug: Optional[str] = None,
    target: Optional[Tuple[str, ...]] = None,
) -> ShrinkResult:
    """ddmin the fault list to a minimal subsequence that still violates.

    Classic delta debugging over complements: split the fault list into
    ``n`` chunks, try dropping each chunk; if the reduced schedule still
    violates one of the ``target`` invariants, keep the reduction and
    coarsen, else refine the granularity.  The result is always a
    *subsequence* of the original faults (order preserved, nothing
    mutated), and by construction it still violates the target.
    """
    if target is None:
        base = run_schedule(schedule, bug=bug)
        target = tuple(base.violated_names())
    if not target:
        raise CrucibleError("schedule does not violate any invariant")
    target_set = set(target)
    runs = 0

    def violates(faults: List[FaultSpec]) -> bool:
        nonlocal runs
        runs += 1
        result = run_schedule(
            dataclasses.replace(schedule, faults=tuple(faults)), bug=bug
        )
        return bool(target_set & set(result.violated_names()))

    faults = list(schedule.faults)
    granularity = 2
    while len(faults) >= 2 and runs < MAX_SHRINK_RUNS:
        chunk = math.ceil(len(faults) / granularity)
        reduced = None
        for start in range(0, len(faults), chunk):
            if runs >= MAX_SHRINK_RUNS:
                break
            complement = faults[:start] + faults[start + chunk:]
            if complement and violates(complement):
                reduced = complement
                break
        if reduced is not None:
            faults = reduced
            granularity = max(2, granularity - 1)
        elif chunk <= 1:
            break
        else:
            granularity = min(len(faults), granularity * 2)
    return ShrinkResult(
        schedule=dataclasses.replace(schedule, faults=tuple(faults)),
        target=target,
        runs=runs,
        original_faults=len(schedule.faults),
        shrunk_faults=len(faults),
    )


# -- reproducer artifacts ----------------------------------------------------------

ARTIFACT_VERSION = 1


def save_artifact(
    path: str,
    result: RunResult,
    shrink: Optional[ShrinkResult] = None,
) -> Dict[str, Any]:
    """Persist a failing run (optionally with its shrink) as JSON.

    The artifact is self-contained: the schedule replays from its seed,
    the recorded ``fault_digest`` pins the expected byte-identical fault
    stream, and the violations document what to expect.
    """
    payload: Dict[str, Any] = {
        "version": ARTIFACT_VERSION,
        "schedule": result.schedule.to_dict(),
        "schedule_digest": result.schedule.digest(),
        "bug": result.bug,
        "fault_digest": result.fault_digest,
        "violations": [dataclasses.asdict(v) for v in result.violations],
    }
    if shrink is not None:
        payload["shrink"] = {
            "target": list(shrink.target),
            "runs": shrink.runs,
            "original_faults": shrink.original_faults,
            "shrunk_faults": shrink.shrunk_faults,
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def load_artifact(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != ARTIFACT_VERSION:
        raise CrucibleError(
            f"unsupported artifact version {payload.get('version')!r}"
        )
    return payload


def replay_artifact(path: str) -> Tuple[RunResult, bool]:
    """Re-run a persisted reproducer; returns (result, exact_replay).

    ``exact_replay`` is True when the replayed fault stream's digest is
    byte-identical to the recorded one *and* the same invariants fired —
    the determinism contract a reproducer is supposed to carry.
    """
    payload = load_artifact(path)
    schedule = Schedule.from_dict(payload["schedule"])
    result = run_schedule(schedule, bug=payload.get("bug"))
    recorded = {v["invariant"] for v in payload["violations"]}
    exact = (
        result.fault_digest == payload["fault_digest"]
        and set(result.violated_names()) == recorded
    )
    return result, exact
