"""The PAN application library: sockets, modes, and in-app bootstrapping.

This is the paper's Section 4.2 in code:

* **three operating modes** — daemon-dependent, bootstrapper-dependent,
  standalone — resolved automatically ("There is no need to explicitly
  choose a mode of operation"): the library uses a daemon when one runs on
  the host, falls back to pre-installed bootstrap information, and finally
  bootstraps itself in-process;
* **drop-in socket** — :class:`ScionSocket` mirrors a classic UDP socket
  (bind / send / receive-handler) while transparently handling the IP-UDP
  Layer-2.5 encapsulation and exposing path-aware knobs (policy,
  failover).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.endhost.bootstrap.bootstrapper import Bootstrapper, BootstrapResult
from repro.endhost.daemon import Daemon
from repro.endhost.policy import LowestLatencyPolicy, PathPolicy
from repro.errors import ReproError
from repro.obs import NOOP_TELEMETRY, Telemetry
from repro.scion.addr import HostAddr, IA
from repro.scion.network import ScionNetwork
from repro.scion.path import PathMeta
from repro.scion.revocation import Revocation


#: One-way intra-AS latency from a host to its border router (the IP-UDP
#: "Layer 2.5" first and last mile, Section 4.3.1).
FIRST_MILE_S = 0.0004


class PanError(ReproError):
    """Raised for unusable destinations, unbound ports, or setup failures."""


class AppLibraryMode(enum.Enum):
    DAEMON = "daemon-dependent"
    BOOTSTRAPPER = "bootstrapper-dependent"
    STANDALONE = "standalone"


class HostRegistry:
    """Maps (IA, intra-AS IP) to hosts so sockets can deliver to peers."""

    def __init__(self) -> None:
        self._hosts: Dict[Tuple[str, str], "ScionHost"] = {}

    def register(self, host: "ScionHost") -> None:
        key = (str(host.ia), host.ip)
        if key in self._hosts:
            raise PanError(f"host {key} already registered")
        self._hosts[key] = host

    def lookup(self, ia: IA, ip: str) -> Optional["ScionHost"]:
        return self._hosts.get((str(ia), ip))


@dataclass(frozen=True)
class SendResult:
    """Outcome of one send (and, for request/response handlers, the reply)."""

    success: bool
    latency_s: float = 0.0
    rtt_s: float = 0.0
    path: Optional[PathMeta] = None
    failure: str = ""
    reply: Optional[bytes] = None
    paths_tried: int = 0
    #: Revocation minted by the failing router for interface-scoped
    #: failures — lets the caller skip *every* path over the dead link.
    revocation: Optional[Revocation] = None


class ScionHost:
    """One end host: an IA, an intra-AS IP, and its end-host stack pieces."""

    def __init__(
        self,
        network: ScionNetwork,
        ia: IA,
        ip: str,
        registry: HostRegistry,
        daemon: Optional[Daemon] = None,
        bootstrap_result: Optional[BootstrapResult] = None,
        bootstrapper: Optional[Bootstrapper] = None,
    ):
        if ia not in network.topology.ases:
            raise PanError(f"host placed in unknown AS {ia}")
        self.network = network
        self.ia = ia
        self.ip = ip
        self.registry = registry
        self.daemon = daemon
        self.bootstrap_result = bootstrap_result
        self.bootstrapper = bootstrapper
        self.sockets: Dict[int, "ScionSocket"] = {}
        self._next_ephemeral = 40000
        registry.register(self)

    def allocate_port(self) -> int:
        while self._next_ephemeral in self.sockets:
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port


class PanContext:
    """Per-application library instance with automatic mode fallback."""

    def __init__(self, host: ScionHost):
        self.host = host
        self.default_policy = LowestLatencyPolicy()
        self.mode: Optional[AppLibraryMode] = None
        self.setup_latency_s = 0.0
        self._own_cache: Dict[IA, List[PathMeta]] = {}
        self._bootstrap: Optional[BootstrapResult] = host.bootstrap_result

    def ensure_ready(self) -> AppLibraryMode:
        """Resolve the operating mode, bootstrapping in-app if necessary."""
        if self.mode is not None:
            return self.mode
        if self.host.daemon is not None:
            self.mode = AppLibraryMode.DAEMON
        elif self._bootstrap is not None:
            self.mode = AppLibraryMode.BOOTSTRAPPER
        elif self.host.bootstrapper is not None:
            result = self.host.bootstrapper.bootstrap()
            self._bootstrap = result
            self.setup_latency_s = result.total_latency_s
            self.mode = AppLibraryMode.STANDALONE
        else:
            raise PanError(
                "no daemon, no bootstrap information, and no way to "
                "bootstrap: host cannot use SCION"
            )
        return self.mode

    def on_network_migration(self) -> None:
        """The host moved networks: caches are stale, standalone apps must
        re-bootstrap individually (the inefficiency Section 4.2.1 notes)."""
        self._own_cache.clear()
        if self.mode is AppLibraryMode.STANDALONE:
            self.mode = None
            self._bootstrap = None
        elif self.mode is AppLibraryMode.DAEMON and self.host.daemon:
            self.host.daemon.flush_cache()

    def paths(self, dst: IA, now: float = 0.0) -> List[PathMeta]:
        self.ensure_ready()
        if self.mode is AppLibraryMode.DAEMON:
            return self.host.daemon.lookup(dst, now)
        cached = self._own_cache.get(dst)
        if cached is None:
            cached = self.host.network.paths(self.host.ia, dst)
            self._own_cache[dst] = cached
        return list(cached)

    def evict_revoked(self, revocation: Revocation) -> int:
        """Drop library-cached paths over a revoked interface.

        Daemonless modes have no sciond to hold down-interface state, so
        the revocation is applied straight to the in-app path cache.
        """
        evicted = 0
        for dst, metas in list(self._own_cache.items()):
            kept = [m for m in metas if revocation.key not in m.interfaces]
            if len(kept) == len(metas):
                continue
            evicted += len(metas) - len(kept)
            self._own_cache[dst] = kept
        return evicted

    def select_path(
        self, dst: IA, policy: Optional[PathPolicy] = None, now: float = 0.0
    ) -> PathMeta:
        candidates = self.paths(dst, now)
        chosen = (policy or self.default_policy).best(candidates)
        if chosen is None:
            raise PanError(f"no path from {self.host.ia} to {dst} permitted")
        return chosen

    def open_socket(self, port: int = 0) -> "ScionSocket":
        if port == 0:
            port = self.host.allocate_port()
        if port in self.host.sockets:
            raise PanError(f"port {port} already bound on {self.host.ip}")
        sock = ScionSocket(self, port)
        self.host.sockets[port] = sock
        return sock


#: Handler signature: (payload, source, path) -> optional reply payload.
MessageHandler = Callable[[bytes, HostAddr, PathMeta], Optional[bytes]]


class ScionSocket:
    """A drop-in UDP-style socket with path awareness."""

    def __init__(self, context: PanContext, port: int):
        self.context = context
        self.port = port
        self.handler: Optional[MessageHandler] = None
        self.received: List[Tuple[bytes, HostAddr]] = []
        self.sent_packets = 0

    @property
    def host(self) -> ScionHost:
        return self.context.host

    @property
    def _telemetry(self) -> Telemetry:
        daemon = self.host.daemon
        return daemon.telemetry if daemon is not None else NOOP_TELEMETRY

    @property
    def local_address(self) -> HostAddr:
        return HostAddr(self.host.ia, self.host.ip, self.port)

    def on_message(self, handler: MessageHandler) -> None:
        self.handler = handler

    def close(self) -> None:
        self.host.sockets.pop(self.port, None)

    # -- sending ------------------------------------------------------------------

    def send_to(
        self,
        dst: HostAddr,
        payload: bytes,
        policy: Optional[PathPolicy] = None,
        now: float = 0.0,
    ) -> SendResult:
        """Send one datagram; returns delivery outcome (and any reply)."""
        if dst.ia == self.host.ia:
            return self._deliver_local(dst, payload, now)
        try:
            path = self.context.select_path(dst.ia, policy, now)
        except PanError as exc:
            return SendResult(False, failure=str(exc))
        return self._send_via(dst, payload, path, now, paths_tried=1)

    def send_with_failover(
        self,
        dst: HostAddr,
        payload: bytes,
        policy: Optional[PathPolicy] = None,
        max_attempts: int = 32,
        now: float = 0.0,
    ) -> SendResult:
        """Try policy-ordered paths until one delivers (instant failover).

        ``max_attempts`` defaults high: after a regional outage the
        surviving paths can rank far down the latency ordering (they are
        the around-the-globe ones), and giving up early would defeat the
        multipath story.

        Failover is SCMP-triggered and instant (Section 4.7): an
        interface-scoped probe failure feeds the router's SCMP error — and
        the signed revocation minted from it — to the host's daemon, and
        every queued candidate crossing the revoked interface is skipped
        *before any re-lookup*.  Without a daemon the revocation is
        consumed directly: the library's own cache is evicted and the queue
        filtered, so all paths over the dead link die in one step."""
        tel = self._telemetry
        if not tel.enabled:
            return self._send_with_failover(
                dst, payload, policy, max_attempts, now
            )
        span = tel.tracer.begin(
            "host.send_with_failover", now=now,
            src=str(self.host.ia), dst=str(dst.ia),
        )
        try:
            result = self._send_with_failover(
                dst, payload, policy, max_attempts, now
            )
        except BaseException:
            tel.tracer.end(span, status="error")
            raise
        span.attrs["paths_tried"] = str(result.paths_tried)
        tel.tracer.end(span, status="ok" if result.success else "error")
        return result

    def _send_with_failover(
        self,
        dst: HostAddr,
        payload: bytes,
        policy: Optional[PathPolicy],
        max_attempts: int,
        now: float,
    ) -> SendResult:
        if dst.ia == self.host.ia:
            return self._deliver_local(dst, payload, now)
        queue = (policy or self.context.default_policy).order(
            self.context.paths(dst.ia, now)
        )
        last = SendResult(False, failure="no-paths")
        attempt = 0
        while queue and attempt < max_attempts:
            meta = queue.pop(0)
            attempt += 1
            result = self._send_via(
                dst, payload, meta, now, paths_tried=attempt, report_scmp=True
            )
            if result.success:
                return result
            last = result
            skip = set()
            daemon = self.host.daemon
            if daemon is not None and daemon.down_interfaces:
                skip.update(daemon.down_interfaces)
            if result.revocation is not None:
                skip.add(result.revocation.key)
                if daemon is None:
                    self.context.evict_revoked(result.revocation)
            if skip:
                queue = [
                    m for m in queue if not skip.intersection(m.interfaces)
                ]
        return last

    def _send_via(
        self,
        dst: HostAddr,
        payload: bytes,
        meta: PathMeta,
        now: float,
        paths_tried: int,
        report_scmp: bool = False,
    ) -> SendResult:
        network = self.host.network
        probe = network.dataplane.probe(meta.path, now or network.timestamp)
        self.sent_packets += 1
        tel = self._telemetry
        if tel.enabled:
            tel.tracer.add(
                "dataplane.probe",
                status="ok" if probe.success else "error",
                failure=probe.failure,
                failed_at="" if probe.failed_at is None else str(probe.failed_at),
            )
        series = tel.path_series
        if series is not None:
            # ScionPathML-style per-path sample: RTT on delivery, the
            # failure class on loss (loss is a data point, not a gap).
            series.record_probe(
                now or network.timestamp,
                str(self.local_address.ia), str(dst.ia),
                meta.fingerprint, probe.rtt_s, probe.success,
                failure=probe.failure,
            )
        if not probe.success:
            if report_scmp:
                self._report_probe_failure(probe, now)
            return SendResult(
                False, failure=probe.failure, path=meta,
                paths_tried=paths_tried, revocation=probe.revocation,
            )
        dst_host = self.host.registry.lookup(dst.ia, dst.host)
        if dst_host is None:
            return SendResult(
                False, failure="no-such-host", path=meta, paths_tried=paths_tried
            )
        dst_sock = dst_host.sockets.get(dst.port)
        if dst_sock is None:
            return SendResult(
                False, failure="port-unreachable", path=meta,
                paths_tried=paths_tried,
            )
        one_way = probe.one_way_s + FIRST_MILE_S + FIRST_MILE_S
        reply = dst_sock._handle(payload, self.local_address, meta)
        rtt = 2 * one_way if reply is not None else 0.0
        return SendResult(
            True,
            latency_s=one_way,
            rtt_s=rtt,
            path=meta,
            reply=reply,
            paths_tried=paths_tried,
        )

    def _report_probe_failure(self, probe, now: float) -> None:
        """Feed a router's SCMP error (and revocation) to the local daemon.

        In the real stack the router on the failing path emits the SCMP
        error back to the source host; here the probe result carries the
        message itself — for *every* interface-scoped failure (link down,
        interface marked down, unknown interface), not just link-down.
        """
        daemon = self.host.daemon
        if daemon is not None and probe.scmp is not None:
            daemon.handle_scmp(
                probe.scmp, now=now, revocation=probe.revocation
            )

    def _deliver_local(self, dst: HostAddr, payload: bytes, now: float) -> SendResult:
        dst_host = self.host.registry.lookup(dst.ia, dst.host)
        if dst_host is None or dst.port not in dst_host.sockets:
            return SendResult(False, failure="no-such-host")
        latency = 0.0005
        reply = dst_host.sockets[dst.port]._handle(
            payload, self.local_address, None
        )
        return SendResult(
            True, latency_s=latency,
            rtt_s=2 * latency if reply is not None else 0.0,
            reply=reply, paths_tried=0,
        )

    # -- receiving -------------------------------------------------------------------

    def _handle(
        self, payload: bytes, src: HostAddr, path: Optional[PathMeta]
    ) -> Optional[bytes]:
        self.received.append((payload, src))
        if self.handler is not None:
            return self.handler(payload, src, path)
        return None
