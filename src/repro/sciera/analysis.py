"""Analysis of multiping campaigns: Figures 5, 6, 7, 8 and 9 of the paper.

Each ``figN_*`` function consumes a :class:`CampaignDataset` and returns a
plain dataclass with the series the corresponding figure plots plus the
headline statistics quoted in the paper's text, so experiments can print
paper-vs-measured rows directly.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sciera.multiping import CampaignDataset, DAY_S


def percentile(values: Sequence[float], q: float) -> float:
    """``numpy.percentile(values, q)`` (linear), bit for bit: numpy's index
    ``(n - 1) * (q / 100)`` and its two-sided interpolation."""
    data = sorted(values)
    index = (len(data) - 1) * (q / 100)
    low = math.floor(index)
    a, b = data[low], data[min(low + 1, len(data) - 1)]
    t = index - low
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


# --------------------------------------------------------------------------------
# Figure 5: CDF of ping latency for SCION and IP.
# --------------------------------------------------------------------------------


@dataclass
class Fig5Result:
    scion_rtts_ms: List[float]
    ip_rtts_ms: List[float]
    scion_median_ms: float
    ip_median_ms: float
    median_reduction_pct: float
    scion_p90_ms: float
    ip_p90_ms: float
    p90_reduction_pct: float
    scion_ping_count: int
    ip_ping_count: int
    excluded_intervals: int


def fig5_latency_cdf(dataset: CampaignDataset) -> Fig5Result:
    """RTT distributions, applying the paper's stall-exclusion filter."""
    valid = dataset.valid_records()
    excluded = len(dataset.records) - len(valid)
    scion = [r.scion_rtt_s * 1000 for r in valid if r.scion_rtt_s is not None]
    ip = [r.ip_rtt_s * 1000 for r in valid if r.ip_rtt_s is not None]
    if not scion or not ip:
        raise ValueError("campaign produced no usable samples")
    scion_median = statistics.median(scion)
    ip_median = statistics.median(ip)
    scion_p90 = percentile(scion, 90)
    ip_p90 = percentile(ip, 90)
    return Fig5Result(
        scion_rtts_ms=scion,
        ip_rtts_ms=ip,
        scion_median_ms=scion_median,
        ip_median_ms=ip_median,
        median_reduction_pct=100.0 * (1 - scion_median / ip_median),
        scion_p90_ms=scion_p90,
        ip_p90_ms=ip_p90,
        p90_reduction_pct=100.0 * (1 - scion_p90 / ip_p90),
        scion_ping_count=len(scion),
        ip_ping_count=len(ip),
        excluded_intervals=excluded,
    )


# --------------------------------------------------------------------------------
# Figure 6: CDF of the per-pair RTT ratio (SCION / IP).
# --------------------------------------------------------------------------------


@dataclass
class Fig6Result:
    pair_ratios: Dict[Tuple[str, str], float]
    frac_below_1: float
    frac_below_1_25: float
    max_ratio: float
    outlier_pairs: List[Tuple[str, str, float]]  # ratio > 2


def fig6_ratio_cdf(dataset: CampaignDataset) -> Fig6Result:
    """Average SCION and IP RTT per pair over the whole campaign, then the
    ratio — exactly the paper's procedure."""
    ratios: Dict[Tuple[str, str], float] = {}
    per_pair: Dict[Tuple[str, str], Tuple[List[float], List[float]]] = {}
    for r in dataset.valid_records():
        if r.scion_rtt_s is None or r.ip_rtt_s is None:
            continue
        entry = per_pair.setdefault((r.src, r.dst), ([], []))
        entry[0].append(r.scion_rtt_s)
        entry[1].append(r.ip_rtt_s)
    for pair, (scion_vals, ip_vals) in per_pair.items():
        ratios[pair] = statistics.fmean(scion_vals) / statistics.fmean(ip_vals)
    if not ratios:
        raise ValueError("no pair had both SCION and IP samples")
    values = list(ratios.values())
    outliers = sorted(
        ((src, dst, ratio) for (src, dst), ratio in ratios.items()
         if ratio > 2.0),
        key=lambda item: -item[2],
    )
    return Fig6Result(
        pair_ratios=ratios,
        frac_below_1=sum(v < 1.0 for v in values) / len(values),
        frac_below_1_25=sum(v < 1.25 for v in values) / len(values),
        max_ratio=max(values),
        outlier_pairs=outliers,
    )


# --------------------------------------------------------------------------------
# Figure 7: RTT ratio over time.
# --------------------------------------------------------------------------------


@dataclass
class Fig7Result:
    bucket_times_days: List[float]
    ratio_series: List[float]         # mean over pairs of per-bucket ratio
    baseline: float                   # the IP baseline (1.0)
    spike_days: List[float]           # buckets where the ratio jumps

    def max_spike(self) -> float:
        return max(self.ratio_series)


def fig7_ratio_over_time(dataset: CampaignDataset) -> Fig7Result:
    """Ratio of aggregate SCION RTT to aggregate IP RTT per half-day bucket.

    Aggregating sums (rather than averaging per-record ratios) weights each
    ping by its RTT, like the paper's all-pairs view: long intercontinental
    pairs — where SCION's path choice pays off — dominate, so the curve
    sits below 1.0 except during maintenance episodes.
    """
    bucket_s = DAY_S / 2
    buckets: Dict[int, Tuple[float, float]] = {}
    for r in dataset.valid_records():
        if r.scion_rtt_s is None or r.ip_rtt_s is None:
            continue
        scion_sum, ip_sum = buckets.get(int(r.time_s // bucket_s), (0.0, 0.0))
        buckets[int(r.time_s // bucket_s)] = (
            scion_sum + r.scion_rtt_s, ip_sum + r.ip_rtt_s,
        )
    if not buckets:
        raise ValueError("no ratio samples")
    times = sorted(buckets)
    series = [buckets[t][0] / buckets[t][1] for t in times]
    day_times = [t * bucket_s / DAY_S for t in times]
    typical = statistics.median(series)
    spikes = [
        day for day, value in zip(day_times, series)
        if value > typical * 1.03
    ]
    return Fig7Result(
        bucket_times_days=day_times,
        ratio_series=series,
        baseline=1.0,
        spike_days=spikes,
    )


# --------------------------------------------------------------------------------
# Figures 8 and 9: active path counts.
# --------------------------------------------------------------------------------


@dataclass
class PathMatrixResult:
    ases: Tuple[str, ...]
    #: (src, dst) -> value; diagonal absent
    matrix: Dict[Tuple[str, str], int]

    def row(self, src: str) -> List[Optional[int]]:
        return [
            self.matrix.get((src, dst)) if src != dst else None
            for dst in self.ases
        ]

    def values(self) -> List[int]:
        return [v for v in self.matrix.values()]


def fig8_max_active_paths(
    dataset: CampaignDataset, ases: Sequence[str]
) -> PathMatrixResult:
    """Highest number of active paths observed at any time per AS pair."""
    matrix: Dict[Tuple[str, str], int] = {}
    for r in dataset.records:
        if r.src in ases and r.dst in ases:
            key = (r.src, r.dst)
            matrix[key] = max(matrix.get(key, 0), r.active_paths)
    return PathMatrixResult(tuple(ases), matrix)


def fig9_median_deviation(
    dataset: CampaignDataset, ases: Sequence[str]
) -> PathMatrixResult:
    """Median deviation from the per-pair maximum of active paths."""
    series: Dict[Tuple[str, str], List[int]] = {}
    for r in dataset.records:
        if r.src in ases and r.dst in ases:
            series.setdefault((r.src, r.dst), []).append(r.active_paths)
    matrix: Dict[Tuple[str, str], int] = {}
    for pair, counts in series.items():
        peak = max(counts)
        deviations = [peak - c for c in counts]
        matrix[pair] = int(statistics.median(deviations))
    return PathMatrixResult(tuple(ases), matrix)
