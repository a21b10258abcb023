"""The client-side bootstrapper (paper Sections 4.1.1-4.1.3).

Pipeline: (1) obtain a hint through whichever mechanism the local network
offers, trying mechanisms in preference order; (2) fetch the signed
topology and the TRCs from the discovered bootstrap server; (3) validate
the TRC (initial TRC via secure channel / pin, updates via chaining) and
the topology signature against the AS certificate chain anchored in the
TRC. After this the host "has all the necessary information to fetch paths
and make use of SCIERA."
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.endhost.bootstrap.hinting import (
    Hint,
    HintMechanism,
    NetworkEnvironment,
)
from repro.endhost.bootstrap.server import BootstrapServer, TopologyDocument
from repro.endhost.bootstrap.timing import OS_MODELS, OsTimingModel
from repro.resilience.retry import RetryPolicy
from repro.scion.crypto.cppki import CertificateError, verify_chain
from repro.scion.crypto.trc import Trc, TrcError, verify_trc_chain


class BootstrapError(ReproError):
    """Raised when no mechanism yields a hint or validation fails."""


class TransientBootstrapError(BootstrapError):
    """A retry-worthy failure: server outage or transport trouble.

    Validation failures (bad signatures, broken TRC chains) stay plain
    :class:`BootstrapError` — retrying a forgery is pointless; an
    unreachable or refusing server is worth another attempt or a fallback
    to a different server.  ``cost_s`` carries the simulated time the
    failed attempt burned, so retry accounting stays honest.
    """

    def __init__(self, message: str, cost_s: float = 0.0):
        super().__init__(message)
        self.cost_s = cost_s


#: Default order: cheap DNS lookups first, then DHCP, then multicast.
DEFAULT_PREFERENCE: Tuple[HintMechanism, ...] = (
    HintMechanism.DNS_SRV,
    HintMechanism.DNS_NAPTR,
    HintMechanism.DNS_SD,
    HintMechanism.IPV6_NDP,
    HintMechanism.DHCP_VIVO,
    HintMechanism.DHCPV6_VSIO,
    HintMechanism.DHCP_OPTION72,
    HintMechanism.MDNS,
)


@dataclass(frozen=True)
class BootstrapResult:
    """A completed bootstrap: configuration plus where the time went.

    ``hint_latency_s`` / ``config_latency_s`` include the time burnt by
    *failed* attempts, and ``retry_wait_s`` the backoff between attempts,
    so ``total_latency_s`` is the true wall-clock from the first probe to a
    validated configuration.
    """

    topology: TopologyDocument
    trcs: Tuple[Trc, ...]
    mechanism: HintMechanism
    hint_latency_s: float
    config_latency_s: float
    mechanisms_tried: int
    attempts: int = 1
    retry_wait_s: float = 0.0
    servers_failed: Tuple[str, ...] = ()

    @property
    def total_latency_s(self) -> float:
        return self.hint_latency_s + self.config_latency_s + self.retry_wait_s


class Bootstrapper:
    """Discovers and validates SCION configuration for one end host."""

    def __init__(
        self,
        environment: NetworkEnvironment,
        servers: Dict[Tuple[str, int], BootstrapServer],
        os_name: str = "Linux",
        preference: Sequence[HintMechanism] = DEFAULT_PREFERENCE,
        rng: Optional[random.Random] = None,
        pinned_trcs: Optional[Sequence[Trc]] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if os_name not in OS_MODELS:
            raise BootstrapError(
                f"unknown OS {os_name!r}; known: {sorted(OS_MODELS)}"
            )
        self.environment = environment
        self.servers = servers
        self.timing: OsTimingModel = OS_MODELS[os_name]
        self.preference = tuple(preference)
        self.rng = rng or random.Random(0xB007)
        self.pinned_trcs = list(pinned_trcs or [])
        #: None = fail fast on the first error (the pre-chaos behaviour)
        self.retry_policy = retry_policy

    # -- step 1: hint discovery ---------------------------------------------------

    def discover_hint(
        self, exclude_servers: Optional[Set[Tuple[str, int]]] = None
    ) -> Tuple[Hint, float, int]:
        """Try mechanisms in preference order; return (hint, latency, tries).

        Each unavailable mechanism still costs a (short) probe timeout —
        this is why the preference order matters for the Figure 4 numbers.
        ``exclude_servers`` skips hints pointing at servers that already
        failed this bootstrap, so retries fall back to the *next* server
        instead of hammering the dead one.
        """
        exclude = exclude_servers or set()
        elapsed = 0.0
        tried = 0
        skipped = 0
        for mechanism in self.preference:
            tried += 1
            elapsed += self.timing.sample_hint_s(mechanism, self.rng)
            hint = self.environment.query(mechanism)
            if hint is None:
                continue
            if (hint.server_ip, hint.server_port) in exclude:
                skipped += 1
                continue
            return hint, elapsed, tried
        if skipped:
            raise TransientBootstrapError(
                f"all {skipped} discovered hints point at failed bootstrap "
                f"servers ({tried} mechanisms tried)",
                cost_s=elapsed,
            )
        raise BootstrapError(
            f"no bootstrapping hint found after trying {tried} mechanisms"
        )

    # -- step 2+3: config fetch and validation --------------------------------------

    def fetch_config(self, hint: Hint) -> Tuple[TopologyDocument, List[Trc], float]:
        server = self.servers.get((hint.server_ip, hint.server_port))
        if server is None:
            raise TransientBootstrapError(
                f"hint points at {hint.server_ip}:{hint.server_port} "
                "but no bootstrap server answers there"
            )
        latency = self.timing.sample_http_s(0.002, self.rng)
        latency += server.processing_s
        try:
            document = server.get_topology()
            trcs = server.get_trcs()
        except ReproError as exc:
            # Server-side refusals and injected outages are transport
            # failures: the time was spent even though nothing came back.
            raise TransientBootstrapError(
                f"bootstrap server {hint.server_ip}:{hint.server_port} "
                f"failed: {exc}",
                cost_s=latency,
            ) from exc
        self._validate(document, trcs)
        return document, trcs, latency

    def _validate(self, document: TopologyDocument, trcs: Sequence[Trc]) -> None:
        if not trcs:
            raise BootstrapError("bootstrap server returned no TRCs")
        local_isd = document.ia.isd
        local = [t for t in trcs if t.isd == local_isd]
        if not local:
            raise BootstrapError(f"no TRC for local ISD {local_isd}")
        trc = sorted(local, key=lambda t: t.serial)[-1]
        try:
            if self.pinned_trcs:
                # Initial TRC obtained out-of-band: the served TRC must chain
                # from (or be) a pinned one.
                pinned = {(p.isd, p.serial): p for p in self.pinned_trcs}
                if (trc.isd, trc.serial) in pinned:
                    if trc.payload_bytes() != pinned[(trc.isd, trc.serial)].payload_bytes():
                        raise BootstrapError("served TRC differs from pinned TRC")
                else:
                    base = pinned.get((trc.isd, trc.serial - 1))
                    if base is None:
                        raise BootstrapError(
                            "served TRC does not chain from any pinned TRC"
                        )
                    trc.verify_update(base)
            else:
                # Trust-on-first-use via the secure (TLS) channel: verify the
                # full served chain from the base TRC up to the latest.
                chain = sorted(local, key=lambda t: t.serial)
                if not chain[0].is_base:
                    raise BootstrapError(
                        "served TRCs do not include the base TRC"
                    )
                verify_trc_chain(chain)
        except TrcError as exc:
            raise BootstrapError(f"TRC validation failed: {exc}") from exc
        if not document.verify_signature():
            raise BootstrapError("topology document signature invalid")
        try:
            verify_chain(document.certificate_chain, trc,
                         now=max(0.0, trc.not_before))
        except CertificateError as exc:
            raise BootstrapError(
                f"topology signer certificate chain invalid: {exc}"
            ) from exc
        if str(document.certificate_chain[0].subject) != str(document.ia):
            raise BootstrapError(
                "topology signed by a certificate for a different AS"
            )

    # -- the whole pipeline ----------------------------------------------------------

    def bootstrap(self) -> BootstrapResult:
        """Run hint→fetch→validate, retrying transient failures.

        Without a :class:`RetryPolicy` this is the classic single-shot
        pipeline.  With one, each transient failure (server outage, dead
        hint) excludes the failing server, backs off per the policy, and
        re-runs discovery — falling back to the next hint/server when the
        network advertises several.  All time spent (failed probes, failed
        fetches, backoff waits) lands in the result's latency fields.
        """
        schedule = self.retry_policy.schedule() if self.retry_policy else None
        failed_servers: Set[Tuple[str, int]] = set()
        hint_total = 0.0
        config_total = 0.0
        wait_total = 0.0
        tried_total = 0
        attempts = 0
        while True:
            attempts += 1
            hint: Optional[Hint] = None
            try:
                hint, hint_latency, tried = self.discover_hint(
                    exclude_servers=failed_servers
                )
                hint_total += hint_latency
                tried_total += tried
                document, trcs, config_latency = self.fetch_config(hint)
                config_total += config_latency
                return BootstrapResult(
                    topology=document,
                    trcs=tuple(trcs),
                    mechanism=hint.mechanism,
                    hint_latency_s=hint_total,
                    config_latency_s=config_total,
                    mechanisms_tried=tried_total,
                    attempts=attempts,
                    retry_wait_s=wait_total,
                    servers_failed=tuple(
                        sorted(f"{ip}:{port}" for ip, port in failed_servers)
                    ),
                )
            except TransientBootstrapError as exc:
                if hint is None:
                    # Discovery itself failed: every known hint points at a
                    # failed server. Wipe the exclusions so the next attempt
                    # (after backoff) re-tries servers that may have healed.
                    hint_total += exc.cost_s
                    tried_total += len(self.preference)
                    failed_servers.clear()
                else:
                    config_total += exc.cost_s
                    failed_servers.add((hint.server_ip, hint.server_port))
                if schedule is None:
                    raise
                schedule.charge(self.retry_policy.clamp_cost(exc.cost_s))
                backoff = schedule.next_backoff_s()
                if backoff is None:
                    raise TransientBootstrapError(
                        f"bootstrap gave up after {attempts} attempts: {exc}",
                        cost_s=exc.cost_s,
                    ) from exc
                wait_total += backoff
