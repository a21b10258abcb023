"""LightningFilter: line-rate SCION traffic filtering and authentication.

Section 4.7.1/4.9 of the paper: legacy firewalls cannot inspect SCION
traffic beyond the outer IP-UDP encapsulation and commercial appliances
bottleneck Science-DMZ transfers; LightningFilter (DPDK-based in the
original) authenticates SCION packets at 100 Gbps line rate using
symmetric per-AS keys (DRKey-style) and rate-limits by (source AS, host).

We model the data path at packet granularity: per-packet symmetric MAC
verification with a per-core cost budget, per-source-AS token buckets, and
counters the Science-DMZ experiments and tests read.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.obs import Telemetry, resolve
from repro.scion.addr import IA
from repro.scion.crypto.drkey import DrkeyProvider
from repro.scion.crypto.keys import SymmetricKey


@dataclass
class FilterStats:
    accepted: int = 0
    rejected_auth: int = 0
    rejected_rate: int = 0
    bytes_accepted: int = 0


@dataclass
class _Bucket:
    tokens: float
    updated_s: float


class LightningFilter:
    """Symmetric-crypto packet filter in front of a Science-DMZ node."""

    #: per-packet processing cost per core (DPDK fast path, ~180ns/pkt
    #: => one core sustains ~5.5 Mpps; 8 cores saturate 100GbE at 1500B).
    PER_PACKET_S = 1.8e-7

    def __init__(
        self,
        local_ia: IA,
        host_key: SymmetricKey,
        cores: int = 8,
        rate_limit_pps: Optional[float] = 200_000.0,
        burst: float = 20_000.0,
        telemetry: Optional[Telemetry] = None,
    ):
        self.local_ia = local_ia
        self._drkey = DrkeyProvider(str(local_ia), host_key)
        self.cores = cores
        self.rate_limit_pps = rate_limit_pps
        self.burst = burst
        self.stats = FilterStats()
        self._buckets: Dict[str, _Bucket] = {}
        tel = resolve(telemetry)
        self._telemetry = tel
        labels = {"as": str(local_ia)}
        self._security_rejected_auth = tel.metrics.counter(
            "security_filter_rejections_total",
            "Packets the LightningFilter refused, by reason.",
            labels={**labels, "reason": "auth"},
        )
        self._security_rejected_rate = tel.metrics.counter(
            "security_filter_rejections_total",
            "Packets the LightningFilter refused, by reason.",
            labels={**labels, "reason": "rate"},
        )
        #: Sources already alerted on, per reason — a flood is one
        #: incident, not a million timeline entries.
        self._alerted: Set[Tuple[str, str]] = set()

    # -- DRKey authentication ---------------------------------------------------------

    @property
    def epoch_s(self) -> float:
        """The DRKey epoch length the filter derives keys against."""
        return self._drkey.epoch_s

    def derive_source_key(self, src_ia: str, now_s: float = 0.0) -> SymmetricKey:
        """The DRKey level-1 key shared with ``src_ia`` — derived on the
        fly with one PRF call, never looked up or exchanged. This is what
        makes line-rate per-packet authentication possible."""
        return self._drkey.level1_key(src_ia, now_s)

    def compute_auth_tag(self, src_ia: str, payload: bytes,
                         now_s: float = 0.0) -> bytes:
        return self.derive_source_key(src_ia, now_s).mac(payload)[:16]

    def verify(self, src_ia: str, payload: bytes, tag: bytes,
               now_s: float = 0.0) -> bool:
        expected = self.compute_auth_tag(src_ia, payload, now_s)
        return hmac.compare_digest(expected, tag)

    # -- packet processing -------------------------------------------------------------

    def process(
        self,
        src_ia: str,
        payload: bytes,
        tag: bytes,
        now_s: float,
        size_bytes: Optional[int] = None,
    ) -> bool:
        """Filter one packet; returns True if it is forwarded onward."""
        if not self.verify(src_ia, payload, tag, now_s):
            self.stats.rejected_auth += 1
            self._security_rejected_auth.inc()
            self._alert_once(src_ia, "auth", now_s)
            return False
        if self.rate_limit_pps is not None and not self._take_token(src_ia, now_s):
            self.stats.rejected_rate += 1
            self._security_rejected_rate.inc()
            self._alert_once(src_ia, "rate", now_s)
            return False
        self.stats.accepted += 1
        self.stats.bytes_accepted += (
            size_bytes if size_bytes is not None else len(payload)
        )
        return True

    def _alert_once(self, src_ia: str, reason: str, now_s: float) -> None:
        """One timeline alert per (source, reason) — dedup the flood."""
        tel = self._telemetry
        if not tel.enabled or (src_ia, reason) in self._alerted:
            return
        self._alerted.add((src_ia, reason))
        kind = "flood-detected" if reason == "rate" else "bad-auth-traffic"
        tel.events.record(
            now_s, "security", kind,
            target=f"{src_ia}->{self.local_ia}",
            detail=f"LightningFilter rejecting {src_ia} traffic ({reason})",
            severity="critical",
        )

    def _take_token(self, src_ia: str, now_s: float) -> bool:
        bucket = self._buckets.get(src_ia)
        if bucket is None:
            bucket = _Bucket(tokens=self.burst, updated_s=now_s)
            self._buckets[src_ia] = bucket
        elapsed = max(0.0, now_s - bucket.updated_s)
        bucket.tokens = min(
            self.burst, bucket.tokens + elapsed * self.rate_limit_pps
        )
        bucket.updated_s = now_s
        if bucket.tokens >= 1.0:
            bucket.tokens -= 1.0
            return True
        return False

    # -- capacity model ------------------------------------------------------------------

    def line_rate_gbps(self, packet_bytes: int = 1500) -> float:
        """Aggregate filtering throughput (RSS spreads flows over cores)."""
        pps = self.cores / self.PER_PACKET_S
        return pps * packet_bytes * 8 / 1e9

    def saturates_100g(self, packet_bytes: int = 1500) -> bool:
        return self.line_rate_gbps(packet_bytes) >= 100.0
