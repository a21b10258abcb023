#!/usr/bin/env python3
"""Run a scaled-down multiping campaign and print the paper's statistics.

The full Section 5.4 campaign is 20 days; this example runs the same
pipeline (per-interval SCION 3-path minima vs ICMP over BGP, failure and
maintenance schedule, stall exclusion) over the full window at a coarse
4-hour aggregation, then prints the Figures 5-9 headline numbers.

Run:  python examples/measurement_campaign.py
"""

import statistics

from repro.sciera.analysis import (
    fig5_latency_cdf,
    fig6_ratio_cdf,
    fig7_ratio_over_time,
    fig8_max_active_paths,
    fig9_median_deviation,
)
from repro.sciera.build import build_sciera
from repro.sciera.multiping import DAY_S, MultipingCampaign
from repro.sciera.topology_data import FIG8_ASES


def main() -> None:
    print("Building SCIERA and running a 20-day campaign (4 h aggregation)...")
    world = build_sciera(seed=7)
    campaign = MultipingCampaign(
        world, duration_s=20 * DAY_S, interval_s=4 * 3600, seed=3
    )
    dataset = campaign.run()
    print(f"  {len(dataset.records)} interval records over "
          f"{dataset.pair_count} AS pairs; "
          f"{len(dataset.events)} operational events\n")

    f5 = fig5_latency_cdf(dataset)
    print("Figure 5 — RTT distributions:")
    print(f"  median: IP {f5.ip_median_ms:.1f} ms -> SCION "
          f"{f5.scion_median_ms:.1f} ms ({f5.median_reduction_pct:+.1f}% "
          "reduction; paper: 6.9%)")
    print(f"  p90:    IP {f5.ip_p90_ms:.0f} ms -> SCION "
          f"{f5.scion_p90_ms:.0f} ms ({f5.p90_reduction_pct:+.1f}% "
          "reduction; paper: 23.7%)\n")

    f6 = fig6_ratio_cdf(dataset)
    print("Figure 6 — per-pair RTT ratio:")
    print(f"  {100*f6.frac_below_1:.0f}% of pairs faster over SCION "
          "(paper: ~38%)")
    print(f"  {100*f6.frac_below_1_25:.0f}% under 1.25x (paper: ~80%); "
          f"worst outlier {f6.max_ratio:.1f}x\n")

    f7 = fig7_ratio_over_time(dataset)
    print("Figure 7 — ratio over time:")
    print(f"  median {statistics.median(f7.ratio_series):.2f}, range "
          f"[{min(f7.ratio_series):.2f}, {max(f7.ratio_series):.2f}] "
          "(SCION 10-20% faster in aggregate, maintenance spikes visible)\n")

    f8 = fig8_max_active_paths(dataset, FIG8_ASES)
    values = f8.values()
    print("Figure 8 — max active paths between the 9 measured ASes:")
    print(f"  min {min(values)}, median {sorted(values)[len(values)//2]}, "
          f"max {max(values)} (paper: 2 .. 113)\n")

    f9 = fig9_median_deviation(dataset, FIG8_ASES)
    dj_sg = f9.matrix[("71-2:0:3b", "71-2:0:3d")]
    zeros = sum(1 for v in f9.values() if v == 0)
    print("Figure 9 — median deviation from the maximum:")
    print(f"  {zeros}/{len(f9.values())} pairs at 0; Daejeon<->Singapore "
          f"deviates by {dj_sg} (paper: 16) — the submarine cable cut")


if __name__ == "__main__":
    main()
