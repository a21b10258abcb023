"""Figure 7: SCION/IP RTT ratio over the campaign timeline."""

from __future__ import annotations

import statistics

from repro.experiments.common import campaign_engine_note, get_campaign
from repro.experiments.registry import Comparison, ExperimentResult
from repro.sciera.analysis import fig7_ratio_over_time


def _stabilization_row(result) -> Comparison:
    """Ratio variability before vs after the day-7 link arrivals."""
    pairs = list(zip(result.bucket_times_days, result.ratio_series))
    before = [ratio for day, ratio in pairs if day < 7.0]
    after = [ratio for day, ratio in pairs if day >= 7.0]
    if len(before) < 2 or len(after) < 2:
        return Comparison(
            "stabilization", "new EU-US links after Jan 25",
            "window too short to compare",
        )
    return Comparison(
        "stabilization", "new EU-US links after Jan 25 stabilize the ratio",
        f"ratio std {statistics.pstdev(before):.3f} before day 7 vs "
        f"{statistics.pstdev(after):.3f} after",
    )


def run(fast: bool = True) -> ExperimentResult:
    dataset = get_campaign(fast)
    result = fig7_ratio_over_time(dataset)
    series = result.ratio_series
    sparkline = "  day: " + "  ".join(
        f"{d:.1f}:{v:.2f}"
        for d, v in zip(result.bucket_times_days[::4], series[::4])
    ) + "\n" + campaign_engine_note(dataset)
    return ExperimentResult(
        "fig7", "RTT ratio over time",
        comparisons=[
            Comparison(
                "typical ratio", "episodes with 15-20% lower SCION RTTs",
                f"median ratio {statistics.median(series):.2f} "
                f"(min {min(series):.2f})",
            ),
            Comparison(
                "maintenance spikes", "Jan 21 and after Feb 6",
                f"{len(result.spike_days)} elevated buckets, "
                f"max ratio {result.max_spike():.2f}",
            ),
            _stabilization_row(result),
        ],
        details=sparkline,
    )
