"""Section 4.8 ablation: dispatcher vs XDP bypass vs dispatcherless.

The paper's narrative: the dispatcher "introduced overhead and a
bottleneck, since its processing capacity was shared across all SCION
applications", and prevented RSS. Hercules had to bypass it with XDP;
eventually the stack went dispatcherless. This ablation quantifies all
three data paths on the same Science-DMZ transfer.
"""

from __future__ import annotations

from repro.experiments.common import get_world
from repro.experiments.registry import Comparison, ExperimentResult
from repro.scion.addr import IA
from repro.sciera.hercules import datapath_ablation


def run(fast: bool = True) -> ExperimentResult:
    world = get_world()
    # The Science-DMZ use case: KISTI Daejeon to GEANT over the SCIONabled
    # 20 Gbps KREONET ring (Section 4.7.1).
    reports = datapath_ablation(
        world.network,
        src=IA.parse("71-2:0:3b"),
        dst=IA.parse("71-20965"),
        size_bytes=(1 if fast else 10) * 1024**3,
    )
    dispatcher = reports["dispatcher"]
    dispatcherless = reports["dispatcherless"]
    xdp = reports["xdp-bypass"]
    lines = [
        f"  {mode:<15} goodput {r.goodput_gbps:6.2f} Gbps  "
        f"duration {r.duration_s:8.2f} s  paths {r.paths_used}  "
        f"{'END-HOST LIMITED' if r.endhost_limited else 'network limited'}"
        for mode, r in reports.items()
    ]
    return ExperimentResult(
        "dispatcher", "End-host data path ablation (Hercules transfer)",
        comparisons=[
            Comparison(
                "dispatcher wall", "performance hit a wall; shared bottleneck",
                f"{dispatcher.goodput_gbps:.1f} Gbps, end-host limited: "
                f"{dispatcher.endhost_limited}",
            ),
            Comparison(
                "XDP bypass", "restores high-speed transfers",
                f"{xdp.goodput_gbps:.1f} Gbps "
                f"({xdp.goodput_bps/dispatcher.goodput_bps:.0f}x dispatcher)",
            ),
            Comparison(
                "dispatcherless sockets", "per-app sockets + RSS scale with cores",
                f"{dispatcherless.goodput_gbps:.1f} Gbps",
            ),
        ],
        details="\n".join(lines),
    )
