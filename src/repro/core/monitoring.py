"""Continuous connectivity monitoring and alerting (paper Section 4.4).

SCION has no built-in alerting; SCIERA's operators monitor connectivity
from their own infrastructure to every connected AS, so independent
operators need no monitoring of their own. When an issue is detected, the
affected parties are alerted by email and can consult the orchestrator's
status page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.netsim.simulator import Simulator
from repro.obs import Telemetry, resolve
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork


@dataclass(frozen=True)
class Alert:
    time_s: float
    kind: str          # "connectivity-lost" | "connectivity-restored"
    src: str
    dst: str
    email_to: str
    detail: str = ""


class ConnectivityMonitor:
    """Probes every monitored AS pair on a fixed cadence.

    ``flap_damping_rounds`` is the number of *consecutive* failed probe
    rounds required before a ``connectivity-lost`` alert fires.  The
    default of 1 preserves immediate alerting; under chaos-style probe
    loss, operators raise it so a single lossy round does not page anyone.
    Restores are never damped — good news is always delivered at once.
    Every alert is addressed to the target AS's NOC,
    ``noc@<ISD-AS with '-' for ':'>.example.net``.
    """

    def __init__(
        self,
        network: ScionNetwork,
        vantage: IA,
        targets: Sequence[IA],
        probe_interval_s: float = 60.0,
        flap_damping_rounds: int = 1,
        telemetry: Optional[Telemetry] = None,
    ):
        if probe_interval_s <= 0:
            raise ValueError("probe interval must be positive")
        if flap_damping_rounds < 1:
            raise ValueError("flap_damping_rounds must be >= 1")
        self.network = network
        self.vantage = vantage
        self.targets = [ia for ia in targets if ia != vantage]
        self.probe_interval_s = probe_interval_s
        self.flap_damping_rounds = flap_damping_rounds
        self.alerts: List[Alert] = []
        self.probes_sent = 0
        self._down: Set[IA] = set()
        self._fail_streak: Dict[IA, int] = {}
        self._subscribers: List[Callable[[Alert], None]] = []
        self._timer = None
        self._stopped = False
        tel = resolve(
            telemetry if telemetry is not None
            else getattr(network, "telemetry", None)
        )
        self._telemetry = tel
        if tel.enabled:
            # Alerts land in the unified timeline (deduplicated there) and
            # the monitor's health shows up in the metrics export.
            self.subscribe(tel.events.record_alert)
            tel.metrics.register_collector(self._collect)

    def _collect(self, metrics) -> None:
        metrics.gauge(
            "monitor_probes_sent", "Connectivity probes sent so far.",
        ).set(float(self.probes_sent))
        metrics.gauge(
            "monitor_targets_down",
            "Monitored ASes currently unreachable from the vantage.",
        ).set(float(len(self._down)))
        metrics.gauge(
            "monitor_alerts_emitted", "Alerts emitted (pre-deduplication).",
        ).set(float(len(self.alerts)))

    def subscribe(self, handler: Callable[[Alert], None]) -> None:
        self._subscribers.append(handler)

    def start(self, sim: Simulator) -> None:
        self._stopped = False
        self._timer = sim.schedule(0.0, self._probe_round, sim)

    def stop(self) -> None:
        """Tear down the self-rescheduling probe loop."""
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _probe_round(self, sim: Simulator) -> None:
        if self._stopped:
            return
        for target in self.targets:
            self.probes_sent += 1
            reachable = bool(self.network.active_paths(self.vantage, target))
            if not reachable:
                streak = self._fail_streak.get(target, 0) + 1
                self._fail_streak[target] = streak
                if (
                    streak >= self.flap_damping_rounds
                    and target not in self._down
                ):
                    self._down.add(target)
                    self._emit(sim.now, "connectivity-lost", target)
            else:
                self._fail_streak[target] = 0
                if target in self._down:
                    self._down.remove(target)
                    self._emit(sim.now, "connectivity-restored", target)
        self._timer = sim.schedule(self.probe_interval_s, self._probe_round, sim)

    def _emit(self, now: float, kind: str, target: IA) -> None:
        alert = Alert(
            time_s=now,
            kind=kind,
            src=str(self.vantage),
            dst=str(target),
            email_to=f"noc@{str(target).replace(':', '-')}.example.net",
            detail=f"probed every {self.probe_interval_s:.0f}s from {self.vantage}",
        )
        self.alerts.append(alert)
        for handler in self._subscribers:
            handler(alert)

    @property
    def currently_down(self) -> List[str]:
        return sorted(str(ia) for ia in self._down)
