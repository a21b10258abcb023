"""Chaos layer: seeded probabilistic fault injection.

The paper's measurement campaign overlapped with a KREONET outage, BRIDGES
instabilities, and two maintenance windows (Section 5.4) — and SCIONLab
measurement studies show path churn and probe loss are *continuous*, not
scheduled.  :class:`repro.netsim.failures.FailureSchedule` models the
scheduled part; this module adds the continuous part: a seeded
:class:`FaultInjector` that registers probabilistic faults (loss, latency
spikes, duplication, corruption) on the fault seams of links and dataplane
probes, and proxies bootstrap servers and CAs with injected outages, all
driven by per-target :class:`FaultProfile`\\ s.

Every injected fault is recorded as a structured :class:`FaultEvent`, so
experiments can assert on the exact fault stream — two runs with the same
seed produce identical streams.  The layer is strictly opt-in: nothing in
the simulator or the SCION stack changes behaviour unless a fault is
explicitly registered on a target, and every registration comes with a
remover that takes out exactly that registration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Protocol, Tuple, Type, Union

from repro.errors import ReproError
from repro.netsim.failures import FailureSchedule, LinkEvent
from repro.netsim.link import Link


class ChaosError(ReproError):
    """Raised for invalid chaos configuration."""


class ServerOutage(ReproError):
    """A wrapped server refused a request (injected outage).

    ``transient`` marks this as a retry-worthy transport failure for
    clients that distinguish transient from permanent errors.
    """

    transient = True


class CaOutage(ReproError):
    """A wrapped certificate authority refused an issuance request.

    Transient: certificate renewals back off and retry (the paper's §4.5
    CA is an ordinary service that PoP maintenance takes down too).
    """

    transient = True


class ProbeFaultTarget(Protocol):
    """What :meth:`FaultInjector.wrap_dataplane` needs: the probe fault seam."""

    def add_probe_fault(
        self, fault: Callable[[Any, float], Any]
    ) -> Callable[[], None]: ...


class BootstrapService(Protocol):
    """The requests :class:`FaultyServer` gates."""

    def get_topology(self) -> Any: ...
    def get_trcs(self) -> Any: ...


class CertificateAuthority(Protocol):
    """The requests :class:`FaultyCa` gates."""

    def issue_as_certificate(
        self, subject_ia: str, subject_public_key: Any, now: float,
        lifetime_s: Optional[float] = None,
    ) -> Any: ...
    def renew(self, subject_ia: str, now: float) -> Any: ...


@dataclass(frozen=True)
class FaultProfile:
    """Per-target fault probabilities (all independent, per operation).

    ``loss``/``latency_spike``/``duplicate``/``corrupt`` apply to link
    frames and path probes; ``outage`` applies to wrapped servers
    (probability a request is refused).  ``latency_spike_s`` is the extra
    one-way delay added when a spike fires.
    """

    loss: float = 0.0
    latency_spike: float = 0.0
    latency_spike_s: float = 0.050
    duplicate: float = 0.0
    corrupt: float = 0.0
    outage: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss", "latency_spike", "duplicate", "corrupt", "outage"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise ChaosError(f"{name} must be in [0, 1), got {value}")
        if self.latency_spike_s < 0:
            raise ChaosError("latency_spike_s must be non-negative")


@dataclass(frozen=True)
class FaultEvent:
    """One injected (or observed) fault, for the observability stream."""

    time_s: float
    target: str
    kind: str      # "loss" | "latency-spike" | "duplicate" | "corrupt"
    #                | "server-outage" | "server-recovery"
    #                | "link-down" | "link-up"
    #                | "service-crash" | "service-restart"
    #                | "ca-outage" | "ca-recovery"
    #                | "load-surge-start" | "load-surge-end"
    #                | "partition-start" | "partition-heal"
    detail: str = ""


class FaultInjector:
    """Composes probabilistic faults onto links, probes, and servers.

    All randomness flows through one seeded RNG, so the order of wrapped
    operations fully determines the fault stream.  The injector also
    subscribes to a :class:`FailureSchedule` (via :meth:`observe_schedule`)
    so scheduled link flips appear in the same event stream as the
    probabilistic faults.
    """

    def __init__(self, seed: int = 0xC4A05, event_log: Optional[object] = None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.events: List[FaultEvent] = []
        #: Optional :class:`repro.obs.EventLog` — every fault is mirrored
        #: into the unified timeline alongside supervisor and monitor events.
        self.event_log = event_log

    # -- observability ---------------------------------------------------------

    def record(self, time_s: float, target: str, kind: str, detail: str = "") -> None:
        fault = FaultEvent(time_s, target, kind, detail)
        self.events.append(fault)
        if self.event_log is not None:
            self.event_log.record_fault(fault)

    def event_digest(self) -> str:
        """Stable digest of the fault stream (determinism checks)."""
        payload = "\n".join(
            f"{e.time_s:.9f}|{e.target}|{e.kind}|{e.detail}" for e in self.events
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def observe_schedule(self, schedule: FailureSchedule) -> None:
        """Mirror a failure schedule's link flips into the fault stream."""

        def observer(event: LinkEvent) -> None:
            self.record(
                event.time_s,
                event.link_name,
                "link-up" if event.up else "link-down",
                event.reason,
            )

        schedule.subscribe(observer)

    # -- link and probe faults ---------------------------------------------------

    def _roll(
        self, profile: FaultProfile, target: str, now: float
    ) -> Union[str, Tuple[float, int]]:
        """One frame's or probe's draws, in the order loss, corrupt, spike,
        duplicate (each rolled only when its probability is non-zero): the
        drop reason, or ``(extra one-way delay, copies)``."""
        roll = self.rng.random
        if profile.loss and roll() < profile.loss:
            self.record(now, target, "loss")
            return "chaos-loss"
        if profile.corrupt and roll() < profile.corrupt:
            self.record(now, target, "corrupt")
            return "chaos-corrupt"
        spike, copies = 0.0, 1
        if profile.latency_spike and roll() < profile.latency_spike:
            spike = profile.latency_spike_s
            self.record(now, target, "latency-spike", f"+{spike:.3f}s")
        if profile.duplicate and roll() < profile.duplicate:
            copies = 2
            self.record(now, target, "duplicate")
        return spike, copies

    def wrap_link(self, link: Link, profile: FaultProfile) -> Callable[[], None]:
        """Register probabilistic faults on ``link`` (:meth:`Link.add_fault`).

        Loss and corruption drop the frame (corruption models a frame that
        fails its MAC/CRC at the receiver); a latency spike inflates this
        frame's propagation delay; duplication delivers the frame twice.
        Returns a zero-arg function that removes the registration again.
        """
        return link.add_fault(lambda now, sender: self._roll(profile, link.name, now))

    def probe_filter(
        self, profile: FaultProfile, target: str
    ) -> Callable[[Any, float], Any]:
        """A filter for analytic path probes (duck-typed ``ProbeResult``).

        Given a probe result and the probe time, returns the result after
        chaos: lost or corrupted probes become failures, latency spikes
        inflate the measured delay, duplicates are recorded but do not
        change the outcome (the extra copy is discarded by the receiver).
        """

        def apply(result: Any, now: float) -> Any:
            if not result.success:
                return result
            verdict = self._roll(profile, target, now)
            if isinstance(verdict, str):
                return dataclasses.replace(
                    result, success=False, rtt_s=0.0, one_way_s=0.0, failure=verdict,
                )
            spike = verdict[0]
            if spike:
                result = dataclasses.replace(
                    result,
                    rtt_s=result.rtt_s + 2 * spike,
                    one_way_s=result.one_way_s + spike,
                )
            return result

        return apply

    def wrap_dataplane(self, dataplane: ProbeFaultTarget, profile: FaultProfile,
                       target: str = "dataplane") -> Callable[[], None]:
        """Register end-to-end path chaos on a dataplane's probes
        (:meth:`~repro.scion.dataplane.network.ScionDataplane.add_probe_fault`).

        Returns a zero-arg function that removes the registration again.
        """
        return dataplane.add_probe_fault(self.probe_filter(profile, target))

    # -- server faults ---------------------------------------------------------

    def wrap_server(self, server: BootstrapService, profile: FaultProfile,
                    name: str = "") -> "FaultyServer":
        """A proxy around a bootstrap-style server with injected outages."""
        return FaultyServer(server, profile, self, name or getattr(server, "ip", "server"))

    # -- control-plane faults ---------------------------------------------------

    def wrap_ca(self, ca: CertificateAuthority, profile: FaultProfile,
                name: str = "") -> "FaultyCa":
        """A proxy around a :class:`CaService` with injected outages."""
        return FaultyCa(ca, profile, self, name or getattr(ca, "name", "ca"))

    def crash_service(self, supervisor: Any, name: str, now: float,
                      detail: str = "") -> None:
        """Crash a supervised control-plane service (``service-crash``).

        Delegates the state loss to the supervisor (which owns the
        service's stores and restart policy) and records the fault in the
        shared event stream so the digest covers control-plane chaos too.
        """
        self.record(now, name, "service-crash", detail)
        supervisor.crash(name, now)

    # -- partition faults --------------------------------------------------------

    def partition(self, topology: Any, ases: Iterable[Any], now: float,
                  mode: str = "symmetric") -> "NetworkPartition":
        """Cut a subset of ASes out of the topology (``partition-start``).

        Unlike a link-down (which routers detect and answer with SCMP, so
        end hosts learn about it), a partition is a *silent* blackhole:
        frames and probes crossing the cut vanish at the sender's egress
        with no error signal — the real-world shape of a filtered VLAN or
        a one-way fibre fault.  It is an ordinary link fault, one
        :meth:`Link.add_fault` registration per cut direction.  ``mode``
        selects which directions die:

        - ``"symmetric"``: both directions of every cut link;
        - ``"outbound"``: only frames *leaving* the subset blackhole
          (the subset can still hear the outside);
        - ``"inbound"``: only frames *entering* the subset blackhole.

        The asymmetric modes are what surface one-way reachability bugs:
        an echo probe must fail if *either* direction is cut, because the
        reply reverses the same path.  Returns a :class:`NetworkPartition`
        whose :meth:`~NetworkPartition.heal` restores connectivity and
        records ``partition-heal`` in the same event stream.
        """
        return NetworkPartition(topology, ases, self, now, mode)


class _OutageProxy:
    """Stands in for a service whose ``gated`` requests can be refused.

    A gated request raises ``outage_error`` while the service is marked
    down (:meth:`set_down`) or, per request, with the profile's ``outage``
    probability (recorded at the request's ``now``, when it takes one).
    Every other attribute is the wrapped object's own, so the proxy can
    stand wherever the original was registered.
    """

    gated: Tuple[str, ...] = ()
    outage_error: Type[Exception] = Exception
    label = "service"
    down_kind, up_kind = "outage", "recovery"

    def __init__(self, target: Any, profile: FaultProfile,
                 injector: FaultInjector, name: str):
        self._target = target
        self.profile = profile
        self.injector = injector
        self.name = name
        self.down = False
        self.refused_requests = 0

    def set_down(self, down: bool, now: float = 0.0) -> None:
        """Hard outage toggle (composes with scheduled maintenance)."""
        self.down = down
        kind = self.down_kind if down else self.up_kind
        self.injector.record(now, self.name, kind)

    def _gate(self, now: float) -> None:
        if self.down:
            self.refused_requests += 1
            raise self.outage_error(f"{self.label} {self.name} is down")
        if self.profile.outage and self.injector.rng.random() < self.profile.outage:
            self.refused_requests += 1
            self.injector.record(now, self.name, self.down_kind, "per-request")
            raise self.outage_error(f"{self.label} {self.name} refused the request")

    def __getattr__(self, attr: str) -> Any:
        member = getattr(self._target, attr)
        if attr not in self.gated:
            return member

        def request(*args: Any, **kwargs: Any) -> Any:
            bound = inspect.signature(member).bind(*args, **kwargs)
            self._gate(bound.arguments.get("now", 0.0))
            return member(*args, **kwargs)

        return request


class FaultyServer(_OutageProxy):
    """A :class:`BootstrapServer`-shaped object under chaos: topology and
    TRC requests fail with :class:`ServerOutage` during an outage."""

    gated = ("get_topology", "get_trcs")
    outage_error = ServerOutage
    label = "bootstrap server"
    down_kind, up_kind = "server-outage", "server-recovery"


class FaultyCa(_OutageProxy):
    """A :class:`CaService`-shaped object under chaos: issuance and renewal
    fail with :class:`CaOutage` during an outage (a PoP maintenance window
    for the CA).  Read-side helpers (``needs_renewal``, ``issuance_count``)
    are local computations, not requests to the CA, and are never gated.
    """

    gated = ("issue_as_certificate", "renew")
    outage_error = CaOutage
    label = "certificate authority"
    down_kind, up_kind = "ca-outage", "ca-recovery"


# -- network partitions ----------------------------------------------------------


class NetworkPartition:
    """An active cut isolating a set of ASes (see :meth:`FaultInjector.partition`).

    The cut set is every inter-AS link with exactly one endpoint inside the
    subset; intra-subset and fully-outside links are untouched.  Each cut
    direction is one :meth:`Link.add_fault` registration answering
    ``"partition"`` to frames from the cut sender, so ``link.up`` stays
    true — routers do not see the cut, no SCMP circulates, and healing (the
    registrations' removers) restores connectivity instantly without
    reconvergence machinery.  Overlapping partitions hold a registration
    each: a direction cut twice reopens when the last holder heals.
    """

    def __init__(self, topology: Any, ases: Iterable[Any], injector: FaultInjector,
                 now: float, mode: str = "symmetric"):
        if mode not in ("symmetric", "inbound", "outbound"):
            raise ChaosError(
                f"mode must be symmetric/inbound/outbound, got {mode!r}"
            )
        subset = {str(ia) for ia in ases}
        if not subset:
            raise ChaosError("partition requires at least one AS")
        self.injector = injector
        self.mode = mode
        self.ases = frozenset(subset)
        self.healed = False
        #: (link name, remover) per direction this partition cut.
        self._cuts: List[Tuple[str, Callable[[], None]]] = []
        for name, ((ia_a, _), (ia_b, _)) in topology.link_attachments.items():
            a_in, b_in = str(ia_a) in subset, str(ia_b) in subset
            if a_in == b_in:
                continue  # both sides inside, or both outside: not cut
            link = topology.links[name]
            inside, outside = (link.a, link.b) if a_in else (link.b, link.a)
            if mode in ("symmetric", "outbound"):
                self._cut(link, inside)
            if mode in ("symmetric", "inbound"):
                self._cut(link, outside)
        self.name = ",".join(sorted(subset))
        injector.record(
            now, self.name, "partition-start",
            f"{mode}, {len(self.cut_links)} links cut",
        )

    def _cut(self, link: Link, cut_sender: Any) -> None:
        remove = link.add_fault(
            lambda now, sender: "partition" if sender == cut_sender else (0.0, 1)
        )
        self._cuts.append((link.name, remove))

    @property
    def cut_links(self) -> List[str]:
        return sorted({name for name, _ in self._cuts})

    def heal(self, now: float) -> None:
        """Restore every direction this partition cut (idempotent)."""
        if self.healed:
            return
        self.healed = True
        for _, remove in self._cuts:
            remove()
        self.injector.record(now, self.name, "partition-heal", self.mode)


# -- load surges -----------------------------------------------------------------


@dataclass(frozen=True)
class Arrival:
    """One generated request arrival: when, and how important."""

    time_s: float
    #: 0 = critical (never CoDel-shed: renewals, revocation pushes);
    #: 1 = sheddable bulk traffic (ordinary lookups).
    priority: int = 1


class LoadSurge:
    """A seeded open-loop Poisson lookup storm with a surge window.

    *Open-loop*: arrivals keep coming at the offered rate no matter how
    the server responds — the demand process of a large client population,
    which is exactly what makes overload dangerous (a closed loop would
    self-throttle).  The arrival process is an inhomogeneous Poisson
    process generated by thinning against the peak rate, so the stream is
    exact and fully determined by the seed.

    ``baseline_rps`` is the steady offered load; during
    ``[surge_start_s, surge_end_s)`` it is multiplied by
    ``surge_multiplier`` (the ISSUE's 2x-10x of estimated capacity).  A
    ``high_priority_fraction`` of arrivals are tagged priority 0 —
    critical control-plane work riding the same queue.  The surge window
    is recorded as ``load-surge-start``/``load-surge-end`` fault events
    when an injector is attached, so a surge can coincide with an outage
    in one digest-covered stream.
    """

    def __init__(
        self,
        baseline_rps: float,
        surge_multiplier: float = 4.0,
        surge_start_s: float = 0.0,
        surge_end_s: float = 0.0,
        high_priority_fraction: float = 0.0,
        seed: int = 0x10AD,
        injector: Optional[FaultInjector] = None,
        name: str = "lookup-storm",
    ):
        if baseline_rps <= 0:
            raise ChaosError("baseline_rps must be positive")
        if surge_multiplier < 1.0:
            raise ChaosError("surge_multiplier must be >= 1")
        if surge_end_s < surge_start_s:
            raise ChaosError("surge_end_s must be >= surge_start_s")
        if not (0.0 <= high_priority_fraction <= 1.0):
            raise ChaosError("high_priority_fraction must be in [0, 1]")
        self.baseline_rps = baseline_rps
        self.surge_multiplier = surge_multiplier
        self.surge_start_s = surge_start_s
        self.surge_end_s = surge_end_s
        self.high_priority_fraction = high_priority_fraction
        self.seed = seed
        self.injector = injector
        self.name = name

    def rate_at(self, t: float) -> float:
        """Offered request rate (requests/s) at time ``t``."""
        if self.surge_start_s <= t < self.surge_end_s:
            return self.baseline_rps * self.surge_multiplier
        return self.baseline_rps

    def arrivals(self, duration_s: float) -> List[Arrival]:
        """The full arrival stream over ``[0, duration_s)``.

        Thinning: candidate arrivals are drawn from a homogeneous Poisson
        process at the peak rate, then each is kept with probability
        ``rate_at(t) / peak`` — an exact sampler for the piecewise-constant
        rate, deterministic for a given seed.
        """
        if duration_s <= 0:
            raise ChaosError("duration_s must be positive")
        rng = random.Random(self.seed)
        peak = self.baseline_rps * self.surge_multiplier
        out: List[Arrival] = []
        t = 0.0
        while True:
            t += rng.expovariate(peak)
            if t >= duration_s:
                break
            if rng.random() >= self.rate_at(t) / peak:
                continue
            priority = 1
            if (
                self.high_priority_fraction
                and rng.random() < self.high_priority_fraction
            ):
                priority = 0
            out.append(Arrival(t, priority))
        if self.injector is not None and self.surge_end_s > self.surge_start_s:
            self.injector.record(
                self.surge_start_s, self.name, "load-surge-start",
                f"x{self.surge_multiplier:g} offered load",
            )
            self.injector.record(
                min(self.surge_end_s, duration_s), self.name,
                "load-surge-end",
                f"back to {self.baseline_rps:g} rps",
            )
        return out
