"""Per-OS timing model for the bootstrapping evaluation (Figure 4).

The paper measures hint retrieval and configuration retrieval on Windows,
Linux and macOS, 30 runs per hinting mechanism, finding medians below
150 ms. We cannot run three operating systems; we encode their measured
cost structure — how long each OS takes to issue a DHCP inform / DNS query
/ mDNS query and to perform a small HTTP GET — and drive the *real*
bootstrapper code path with these costs. Jitter is lognormal, which matches
the long right tail visible in the paper's box plots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.endhost.bootstrap.hinting import HintMechanism


@dataclass(frozen=True)
class OsTimingModel:
    """Cost model of one operating system's network stack."""

    name: str
    #: median latency of one hint query per mechanism, seconds
    hint_median_s: Dict[HintMechanism, float]
    #: multiplicative lognormal jitter (sigma of log)
    jitter_sigma: float
    #: socket + TCP handshake + HTTP overhead for the config fetch
    http_overhead_s: float
    #: signature + TRC validation cost on this OS/hardware
    crypto_s: float

    def sample_hint_s(self, mechanism: HintMechanism, rng: random.Random) -> float:
        median = self.hint_median_s[mechanism]
        return median * rng.lognormvariate(0.0, self.jitter_sigma)

    def sample_http_s(self, network_rtt_s: float, rng: random.Random) -> float:
        # TCP handshake (1 RTT) + request/response (1 RTT) + overheads.
        base = 2.0 * network_rtt_s + self.http_overhead_s + self.crypto_s
        return base * rng.lognormvariate(0.0, self.jitter_sigma / 2)


def _mechanism_medians(scale: float) -> Dict[HintMechanism, float]:
    """Baseline per-mechanism hint costs, scaled per OS.

    DHCP requires an inform exchange (or reading the lease), DNS queries go
    to the local resolver, mDNS must wait for multicast responses.
    """
    return {
        HintMechanism.DHCP_VIVO: 0.035 * scale,
        HintMechanism.DHCP_OPTION72: 0.035 * scale,
        HintMechanism.DHCPV6_VSIO: 0.040 * scale,
        HintMechanism.IPV6_NDP: 0.020 * scale,
        HintMechanism.DNS_SRV: 0.012 * scale,
        HintMechanism.DNS_SD: 0.022 * scale,  # PTR then SRV: two lookups
        HintMechanism.DNS_NAPTR: 0.014 * scale,
        HintMechanism.MDNS: 0.055 * scale,    # multicast wait
    }


#: The three desktop OSes of Figure 4. Windows' DHCP/DNS client services add
#: overhead; macOS's mDNSResponder makes mDNS cheap but DNS slightly slower.
OS_MODELS: Dict[str, OsTimingModel] = {
    "Windows": OsTimingModel(
        name="Windows",
        hint_median_s=_mechanism_medians(1.6),
        jitter_sigma=0.55,
        http_overhead_s=0.012,
        crypto_s=0.006,
    ),
    "Linux": OsTimingModel(
        name="Linux",
        hint_median_s=_mechanism_medians(1.0),
        jitter_sigma=0.40,
        http_overhead_s=0.006,
        crypto_s=0.004,
    ),
    "Mac": OsTimingModel(
        name="Mac",
        hint_median_s={
            **_mechanism_medians(1.2),
            HintMechanism.MDNS: 0.030,  # mDNSResponder is native here
        },
        jitter_sigma=0.45,
        http_overhead_s=0.008,
        crypto_s=0.005,
    ),
}
