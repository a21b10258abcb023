"""Figure 5: CDF of ping latency for SCION and IP."""

from __future__ import annotations

from repro.experiments.common import campaign_engine_note, get_campaign
from repro.experiments.registry import Comparison, ExperimentResult
from repro.sciera.analysis import fig5_latency_cdf


def run(fast: bool = True) -> ExperimentResult:
    dataset = get_campaign(fast)
    result = fig5_latency_cdf(dataset)
    xs = sorted(result.scion_rtts_ms)
    series = "  CDF sample points (SCION): " + ", ".join(
        f"p{int(p*100)}={xs[min(len(xs)-1, int(p*len(xs)))]:.0f}ms"
        for p in (0.1, 0.25, 0.5, 0.75, 0.9)
    ) + "\n" + campaign_engine_note(dataset)
    return ExperimentResult(
        "fig5", "Ping latency CDF, SCION vs IP",
        comparisons=[
            Comparison(
                "pings analyzed", "89M SCION / 82M IP (after exclusion)",
                f"{result.scion_ping_count} / {result.ip_ping_count} interval minima "
                f"({result.excluded_intervals} stalled intervals excluded)",
            ),
            Comparison(
                "median RTT", "160.9 ms IP -> 149.8 ms SCION (-6.9%)",
                f"{result.ip_median_ms:.1f} ms IP -> {result.scion_median_ms:.1f} ms "
                f"SCION ({-result.median_reduction_pct:+.1f}%)",
            ),
            Comparison(
                "p90 RTT", "376 ms IP -> 287 ms SCION (-23.7%)",
                f"{result.ip_p90_ms:.0f} ms IP -> {result.scion_p90_ms:.0f} ms "
                f"SCION ({-result.p90_reduction_pct:+.1f}%)",
            ),
        ],
        details=series,
    )
