"""Figure 4: end-host bootstrapping latency per OS and mechanism.

30 runs per hinting mechanism per OS, measuring hint retrieval,
configuration retrieval, and total — the paper's finding is a total median
below 150 ms on every platform.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict, List

from repro.endhost.bootstrap.hinting import HintMechanism
from repro.endhost.bootstrap.timing import OS_MODELS
from repro.experiments.common import get_world
from repro.experiments.registry import Comparison, ExperimentResult

RUNS_PER_MECHANISM = 30
#: Mechanisms exercised per OS (the deployable subset in the testbed AS).
MECHANISMS = (
    HintMechanism.DNS_SRV,
    HintMechanism.DNS_NAPTR,
    HintMechanism.DNS_SD,
    HintMechanism.DHCP_VIVO,
    HintMechanism.MDNS,
)
BOOTSTRAP_AS = "71-2:0:42"  # OVGU, the end-host tooling site


def measure(fast: bool = True) -> Dict[str, Dict[str, List[float]]]:
    """{os: {"hint": [...], "config": [...], "total": [...]}} in seconds."""
    world = get_world()
    runs = 10 if fast else RUNS_PER_MECHANISM
    out: Dict[str, Dict[str, List[float]]] = {}
    for os_name in OS_MODELS:
        samples = {"hint": [], "config": [], "total": []}
        for mechanism in MECHANISMS:
            for run_index in range(runs):
                seed = f"{os_name}:{mechanism.value}:{run_index}"
                bootstrapper = world.bootstrapper_for(
                    BOOTSTRAP_AS, os_name=os_name,
                    rng=random.Random(seed),
                )
                bootstrapper.preference = (mechanism,)
                result = bootstrapper.bootstrap()
                samples["hint"].append(result.hint_latency_s)
                samples["config"].append(result.config_latency_s)
                samples["total"].append(result.total_latency_s)
        out[os_name] = samples
    return out


def run(fast: bool = True) -> ExperimentResult:
    data = measure(fast)
    comparisons = [
        Comparison(
            "platforms", "Windows / Linux / Mac", " / ".join(data),
        ),
    ]
    lines = ["  OS        hint med   config med   total med   total p95"]
    worst_median = 0.0
    for os_name, samples in data.items():
        hint = statistics.median(samples["hint"]) * 1000
        config = statistics.median(samples["config"]) * 1000
        total = statistics.median(samples["total"]) * 1000
        p95 = sorted(samples["total"])[int(len(samples["total"]) * 0.95)] * 1000
        worst_median = max(worst_median, total)
        lines.append(
            f"  {os_name:<8}  {hint:>7.1f}ms  {config:>8.1f}ms  "
            f"{total:>8.1f}ms  {p95:>8.1f}ms"
        )
    comparisons.append(
        Comparison(
            "total median",
            "< 150 ms on every OS (imperceptible)",
            f"worst-OS median {worst_median:.0f} ms",
        )
    )
    return ExperimentResult(
        "fig4", "End-host bootstrapping latency",
        comparisons=comparisons, details="\n".join(lines),
    )
