"""Control-plane self-healing: the service supervisor.

The paper's deployment story (§5.4) is years of PoP maintenance, outages,
and upgrades that the *control plane* had to survive — and Appendix A's
bootstrapping assumes control services that stay reachable while ASes
churn.  This module supervises the control-plane services of a
:class:`~repro.scion.network.ScionNetwork` the way a production init
system supervises processes:

* periodic **health checks** on simulator time detect crashed services;
* a **restart policy** (the shared :class:`~repro.core.retry.RetryPolicy`
  discipline) backs off before restarting them;
* restarts are **cold** (empty beacon stores and segment registry, so the
  network must re-beacon to a fixed point — the convergence we measure) or
  **warm** (state restored from the last periodic checkpoint via the
  stores' ``snapshot()``/``restore()``);
* the **certificate lifecycle** renews AS certificates ahead of expiry
  through the ISD CA, retrying with backoff while the CA is down, so
  beacons never start failing verification because a cert silently aged
  out (§4.5: lifetimes of days force fully automated renewal).

Everything runs on simulated time and is deterministic: crash/restart
events flow into the chaos layer's :class:`FaultEvent` stream, so two runs
with the same seed produce the identical digest.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.retry import RetryError, RetryPolicy
from repro.errors import ReproError
from repro.obs import Telemetry, register_stats_collector, resolve
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork
from repro.scion.revocation import Revocation


class SupervisorError(ReproError):
    """Raised for unknown services or invalid supervisor operations."""


class CaUnavailable(ReproError):
    """The supervised CA is down; renewals retry with backoff.

    ``transient`` marks this retry-worthy for :class:`RetryPolicy`.
    """

    transient = True


class ServiceState(enum.Enum):
    RUNNING = "running"
    DOWN = "down"
    RECOVERING = "recovering"


@dataclass
class ServiceRecord:
    """Lifecycle state of one supervised service."""

    name: str
    kind: str                      # "control" | "path-server" | "ca"
    state: ServiceState = ServiceState.RUNNING
    crashed_at: Optional[float] = None
    detected_at: Optional[float] = None
    restart_at: Optional[float] = None
    recovered_at: Optional[float] = None
    crashes: int = 0
    restarts: int = 0
    last_mode: str = ""            # "cold" | "warm" | "restart"


@dataclass
class SupervisorStats:
    health_checks: int = 0
    checkpoints: int = 0
    crashes: int = 0
    cold_restarts: int = 0
    warm_restarts: int = 0
    rebeacon_rounds: int = 0
    renewals: int = 0
    renewal_attempts: int = 0
    renewal_failures: int = 0
    lookups: int = 0
    lookups_failed: int = 0
    #: Pending revocations replayed into restarted control services, so a
    #: crash/restart cycle cannot resurrect quarantined (dead) paths.
    revocations_replayed: int = 0

    @property
    def lookup_availability(self) -> float:
        """Fraction of path lookups that were served; 1.0 with none made."""
        if not self.lookups:
            return 1.0
        return 1.0 - self.lookups_failed / self.lookups


@dataclass(frozen=True)
class RenewalRecord:
    """One certificate renewal (or exhausted attempt) for the audit log."""

    ia: IA
    time_s: float
    attempts: int
    backoff_s: float
    serial: int
    ok: bool
    detail: str = ""


#: Restart discipline: detect, back off briefly, restart.
DEFAULT_RESTART_POLICY = RetryPolicy(
    max_attempts=4, base_delay_s=0.2, max_delay_s=2.0, seed=0x5047
)

#: Default renewal discipline: a few in-tick retries against a flaky CA.
DEFAULT_RENEWAL_POLICY = RetryPolicy(
    max_attempts=5, base_delay_s=0.1, max_delay_s=3.0, deadline_s=30.0,
    seed=0xCA7,
)


class Supervisor:
    """Owns a network's control-plane services and keeps them alive.

    Supervised units (by name):

    * ``"control"`` — the network-wide control-plane state: every
      :class:`BeaconStore` of the beaconing engine, the
      :class:`SegmentRegistry`, and every AS's up-segment table.  A crash
      loses all of it at once (the paper's control service bundles
      beaconing and path service in one process, §4.3.2).
    * ``"ps:<ia>"`` — one AS's :class:`LocalPathServer`.
    * ``"ca:<isd>"`` — one ISD's :class:`CaService` (availability only;
      issued certificates live in durable storage).
    """

    CONTROL = "control"
    #: Restoring the checkpoint during a warm restart (simulated seconds).
    WARM_RESTORE_S = 0.05

    def __init__(
        self,
        network: ScionNetwork,
        check_interval_s: float = 0.5,
        checkpoint_interval_s: float = 2.0,
        warm_restart: bool = True,
        renewal_policy: RetryPolicy = DEFAULT_RENEWAL_POLICY,
        beacon_round_s: float = 0.25,
        event_sink: Optional[Callable[[float, str, str, str], None]] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        if check_interval_s <= 0:
            raise SupervisorError("check_interval_s must be positive")
        if beacon_round_s <= 0:
            raise SupervisorError("restart durations must be positive")
        self.network = network
        self.check_interval_s = check_interval_s
        self.checkpoint_interval_s = checkpoint_interval_s
        self.warm_restart = warm_restart
        self.renewal_policy = renewal_policy
        self.beacon_round_s = beacon_round_s
        tel = resolve(
            telemetry if telemetry is not None
            else getattr(network, "telemetry", None)
        )
        self._telemetry = tel
        if event_sink is None and tel.enabled:
            # Lifecycle events flow into the unified timeline by default.
            event_sink = tel.events.supervisor_sink()
        self.event_sink = event_sink
        self.stats = SupervisorStats()
        if tel.enabled:
            register_stats_collector(
                tel.metrics, self.stats, prefix="supervisor"
            )
        self.renewal_log: List[RenewalRecord] = []
        #: isd -> CA handle; swap in a chaos-wrapped proxy via set_ca().
        self.cas: Dict[int, Any] = {
            isd: trust.ca for isd, trust in network.isd_trust.items()
        }
        self._records: Dict[str, ServiceRecord] = {}
        self._register(self.CONTROL, "control")
        for ia in sorted(network.services):
            self._register(f"ps:{ia}", "path-server")
        for isd in sorted(network.isd_trust):
            self._register(f"ca:{isd}", "ca")
        self._checkpoint: Optional[Dict[str, Any]] = None
        self._last_checkpoint_s: Optional[float] = None
        #: Pending revocations ("IA#ifid" -> token), fed by each path
        #: server's ``on_revocation`` hook and replayed after restarts.
        self._revocation_ledger: Dict[str, Revocation] = {}
        for service in network.services.values():
            service.path_server.on_revocation = self.record_revocation

    # -- revocation ledger --------------------------------------------------------

    def record_revocation(self, revocation: Revocation) -> None:
        """Remember an accepted revocation for replay after restarts."""
        held = self._revocation_ledger.get(revocation.key)
        if held is None or revocation.expires_at() > held.expires_at():
            self._revocation_ledger[revocation.key] = revocation

    def pending_revocations(self, now: float) -> List[Revocation]:
        """Still-active ledger entries (expired ones are dropped)."""
        expired = [
            key for key, rev in self._revocation_ledger.items()
            if not rev.active(now)
        ]
        for key in expired:
            del self._revocation_ledger[key]
        return sorted(self._revocation_ledger.values(), key=lambda r: r.key)

    def _replay_revocations(self, now: float) -> int:
        """Re-quarantine after a restart wiped or rewound revocation state.

        Runs *after* cold re-beaconing: re-validation only triggers on
        segment registration, so replayed revocations stick even though the
        fresh beacons carry post-revocation timestamps.
        """
        replayed = 0
        registry = self.network.registry
        for rev in self.pending_revocations(now):
            if not registry.covers(rev):
                registry.revoke(rev)
                replayed += 1
        self.stats.revocations_replayed += replayed
        return replayed

    # -- registry ---------------------------------------------------------------

    def _register(self, name: str, kind: str) -> None:
        self._records[name] = ServiceRecord(name=name, kind=kind)

    def record(self, name: str) -> ServiceRecord:
        try:
            return self._records[name]
        except KeyError:
            raise SupervisorError(f"unknown service {name!r}") from None

    def services(self) -> List[str]:
        return sorted(self._records)

    def set_ca(self, isd: int, ca: Any) -> None:
        """Install a (possibly chaos-wrapped) CA handle for one ISD."""
        if isd not in self.cas:
            raise SupervisorError(f"no CA for ISD {isd}")
        self.cas[isd] = ca

    def _emit(self, time_s: float, target: str, kind: str, detail: str = "") -> None:
        if self.event_sink is not None:
            self.event_sink(time_s, target, kind, detail)

    # -- checkpoints ------------------------------------------------------------

    def checkpoint(self, now: float) -> None:
        """Snapshot beacon stores, segment registry, and up-segment tables.

        Warm restarts restore from the most recent checkpoint; a real
        deployment would persist this to disk on the same cadence.  A path
        server that is down keeps its last good snapshot — checkpointing a
        crashed service would overwrite it with the wiped state.
        """
        previous = self._checkpoint["path_servers"] if self._checkpoint else {}
        path_servers = {}
        for ia, service in self.network.services.items():
            if self._records[f"ps:{ia}"].state is ServiceState.RUNNING:
                path_servers[ia] = service.path_server.snapshot()
            elif ia in previous:
                path_servers[ia] = previous[ia]
        self._checkpoint = {
            "time_s": now,
            "beacons": self.network.beaconing.snapshot_stores(),
            "registry": self.network.registry.snapshot(),
            "path_servers": path_servers,
        }
        self._last_checkpoint_s = now
        self.stats.checkpoints += 1

    # -- crash handling ---------------------------------------------------------

    def crash(self, name: str, now: float) -> None:
        """Crash a service: mark it down and lose its in-memory state.

        Idempotent while the service is already down.  The chaos layer
        calls this through :meth:`FaultInjector.crash_service` so the crash
        lands in the shared fault stream.
        """
        rec = self.record(name)
        if rec.state is not ServiceState.RUNNING:
            return
        rec.state = ServiceState.DOWN
        rec.crashed_at = now
        rec.detected_at = None
        rec.restart_at = None
        rec.recovered_at = None
        rec.crashes += 1
        self.stats.crashes += 1
        flight = self._telemetry.flight
        if flight is not None:
            flight.trigger(now, "supervisor", "service-crash", name)
        if rec.kind == "control":
            self.network.beaconing.clear_stores()
            self.network.registry.clear()
            for service in self.network.services.values():
                service.path_server.clear()
            self.network.flush_path_cache()
        elif rec.kind == "path-server":
            ia = IA.parse(name.split(":", 1)[1])
            self.network.services[ia].path_server.clear()
            self.network.flush_path_cache()
        # CA crashes lose availability only; issued certs are durable.

    # -- health checks ----------------------------------------------------------

    def tick(self, now: float) -> None:
        """One health-check pass: detect, restart, promote, renew."""
        self.stats.health_checks += 1
        flight = self._telemetry.flight
        for rec in sorted(self._records.values(), key=lambda r: r.name):
            if rec.state is ServiceState.DOWN and rec.detected_at is None:
                rec.detected_at = now
                rec.restart_at = now + self._restart_backoff_s(rec)
                if flight is not None:
                    flight.trigger(
                        now, "supervisor", "crash-detected", rec.name
                    )
            if (
                rec.state is ServiceState.DOWN
                and rec.restart_at is not None
                and now >= rec.restart_at
            ):
                self._restart(rec, now)
            if (
                rec.state is ServiceState.RECOVERING
                and rec.recovered_at is not None
                and now >= rec.recovered_at
            ):
                rec.state = ServiceState.RUNNING
                self._emit(now, rec.name, "service-recovered", rec.last_mode)
        self._renew_due_certificates(now)
        if (
            self.record(self.CONTROL).state is ServiceState.RUNNING
            and (
                self._last_checkpoint_s is None
                or now - self._last_checkpoint_s >= self.checkpoint_interval_s
            )
        ):
            self.checkpoint(now)

    def schedule_health_checks(self, sim: Any, until_s: float) -> int:
        """Install periodic :meth:`tick` calls on a netsim Simulator."""
        count = 0
        t = sim.now + self.check_interval_s
        while t <= until_s:
            sim.schedule_at(t, self.tick, t)
            t += self.check_interval_s
            count += 1
        return count

    def _restart_backoff_s(self, rec: ServiceRecord) -> float:
        """Deterministic backoff before restarting a detected crash."""
        policy = dataclasses.replace(
            DEFAULT_RESTART_POLICY,
            seed=DEFAULT_RESTART_POLICY.seed + 1009 * self.stats.crashes
            + len(rec.name),
        )
        backoff = policy.schedule().next_backoff_s()
        return backoff if backoff is not None else 0.0

    # -- restarts ---------------------------------------------------------------

    def _restart(self, rec: ServiceRecord, now: float) -> None:
        if rec.kind == "control":
            mode, duration = self._restart_control(now)
        elif rec.kind == "path-server":
            mode, duration = self._restart_path_server(rec, now)
        else:  # "ca"
            mode, duration = "restart", self.WARM_RESTORE_S
        rec.state = ServiceState.RECOVERING
        rec.recovered_at = now + duration
        rec.restarts += 1
        rec.last_mode = mode
        self._emit(now, rec.name, "service-restart", mode)

    def _restart_control(self, now: float) -> tuple:
        if self.warm_restart and self._checkpoint is not None:
            cp = self._checkpoint
            self.network.beaconing.restore_stores(cp["beacons"])
            self.network.registry.restore(cp["registry"])
            for ia, snapshot in cp["path_servers"].items():
                service = self.network.services.get(ia)
                if service is not None:
                    service.path_server.restore(snapshot)
            self.network.flush_path_cache()
            self._replay_revocations(now)
            self.stats.warm_restarts += 1
            return "warm", self.WARM_RESTORE_S
        # Cold: start from empty stores and re-beacon to a fixed point.
        engine = self.network.run_beaconing(now=now)
        self.network.flush_path_cache()
        self._replay_revocations(now)
        rounds = max(1, engine.stats.rounds)
        self.stats.rebeacon_rounds += rounds
        self.stats.cold_restarts += 1
        return "cold", rounds * self.beacon_round_s

    def _restart_path_server(self, rec: ServiceRecord, now: float) -> tuple:
        ia = IA.parse(rec.name.split(":", 1)[1])
        service = self.network.services[ia]
        checkpoint = (
            self._checkpoint["path_servers"].get(ia)
            if self.warm_restart and self._checkpoint is not None
            else None
        )
        if checkpoint is not None:
            service.path_server.restore(checkpoint)
            self._replay_revocations(now)
            self.stats.warm_restarts += 1
            return "warm", self.WARM_RESTORE_S
        # Cold: re-register up segments from the beaconing engine's store.
        engine = self.network.beaconing
        if not self.network.topology.get(ia).is_core:
            stored = engine.down_stores[ia].select_all(
                self.network.K_REGISTER, now=now
            )
            for segment in map(engine.terminate, stored):
                service.path_server.register_up(segment)
        self.stats.cold_restarts += 1
        return "cold", self.beacon_round_s

    # -- availability -----------------------------------------------------------

    def state(self, name: str, now: float) -> ServiceState:
        """Effective state at ``now`` (recovery completes between ticks)."""
        rec = self.record(name)
        if (
            rec.state is ServiceState.RECOVERING
            and rec.recovered_at is not None
            and now >= rec.recovered_at
        ):
            return ServiceState.RUNNING
        return rec.state

    def is_serving(self, name: str, now: float) -> bool:
        return self.state(name, now) is ServiceState.RUNNING

    def lookup(self, src: IA, dst: IA, now: float) -> bool:
        """A path lookup as the end host sees it: served or not.

        Fails while the control plane or the source's path server is down
        or still recovering, and while the (re)converging control plane
        has no paths for the pair yet.
        """
        self.stats.lookups += 1
        if not self.is_serving(self.CONTROL, now) or not self.is_serving(
            f"ps:{src}", now
        ):
            self.stats.lookups_failed += 1
            return False
        paths = self.network.paths(src, dst, refresh=True)
        if not paths:
            self.stats.lookups_failed += 1
            return False
        return True

    # -- certificate lifecycle --------------------------------------------------

    def _renew_due_certificates(self, now: float) -> None:
        for ia, service in sorted(self.network.services.items()):
            ca = self.cas[ia.isd]
            cert = service.certificate.certificate
            if not ca.needs_renewal(cert, now):
                continue
            self._renew(ia, now)

    def _renew(self, ia: IA, now: float) -> bool:
        service = self.network.services[ia]
        ca = self.cas[ia.isd]
        ca_record = self._records.get(f"ca:{ia.isd}")

        def attempt() -> object:
            if ca_record is not None and not self.is_serving(
                ca_record.name, now
            ):
                raise CaUnavailable(f"CA for ISD {ia.isd} is down")
            return service.renew_certificate(ca, now)

        try:
            outcome = self.renewal_policy.run(
                attempt,
                retryable=lambda exc: getattr(exc, "transient", False),
            )
        except RetryError as exc:
            self.stats.renewal_failures += 1
            self.stats.renewal_attempts += exc.attempts
            self.renewal_log.append(
                RenewalRecord(
                    ia=ia, time_s=now, attempts=exc.attempts,
                    backoff_s=0.0, serial=service.certificate.certificate.serial,
                    ok=False, detail=str(exc.last),
                )
            )
            self._emit(now, f"cert:{ia}", "renewal-failed", str(exc.last))
            return False
        self.stats.renewals += 1
        self.stats.renewal_attempts += outcome.attempts
        issued = outcome.value
        self.renewal_log.append(
            RenewalRecord(
                ia=ia, time_s=now, attempts=outcome.attempts,
                backoff_s=outcome.backoff_s,
                serial=issued.certificate.serial, ok=True,
            )
        )
        return True

    def certificate_health(self, now: float) -> Dict[IA, bool]:
        """Per-AS certificate health (the orchestrator dashboard feed)."""
        return {
            ia: service.certificate_healthy(now)
            for ia, service in sorted(self.network.services.items())
        }
