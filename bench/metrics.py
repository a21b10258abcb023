"""Metric names, units and directions, and how each value is computed.

`END_TO_END` and `PER_LAYER` are the lists `BENCHMARK.json` carries (a
harness self-test keeps the two in step).  End-to-end values always come from
untraced slices; per-layer values from one traced slice plus the untraced
slice run just before it in the same process.
"""

from __future__ import annotations

import statistics
from typing import Dict, Mapping, Sequence, Tuple

from layers import ROOT_SPAN

#: (name, unit, better, bound) — bound is the share of the parent's median by
#: which the metric may worsen before a change counts as a regression.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("ops_per_s", "1/s", "higher", 0.20),
    ("op_p50_us", "us", "lower", 0.20),
    ("op_p90_us", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

_SPANS_WITH_CALLS_AND_SELF = (
    "crypto.rsa_sign", "crypto.rsa_verify", "crypto.rsa_keygen",
    "path_server.segments_for", "path_server.register", "path_server.revoke",
    "combinator.combine", "network.paths", "daemon.lookup", "pan.send",
    "dataplane.probe", "dataplane.send",
)

#: (name, unit, better)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    entry
    for span in _SPANS_WITH_CALLS_AND_SELF
    for entry in ((f"{span}_calls", "count", "lower"), (f"{span}_self_s", "s", "lower"))
) + (
    ("crypto.hop_mac_calls", "count", "lower"),
    ("crypto.mac_cache_hit_ratio", "ratio", "higher"),
    ("beaconing.run_self_s", "s", "lower"),
    ("beaconing.rounds", "count", "lower"),
    ("beaconing.beacons_sent", "count", "lower"),
    ("beaconing.beacons_accepted", "count", "lower"),
    ("beaconing.scale_exponent", "ratio", "lower"),
    ("path_server.cache_hit_ratio", "ratio", "higher"),
    ("path_server.segments_quarantined", "count", "lower"),
    ("combinator.paths_per_call", "ratio", "lower"),
    ("network.memo_hit_ratio", "ratio", "higher"),
    ("daemon.cache_hit_ratio", "ratio", "higher"),
    ("daemon.revocations_received", "count", "lower"),
    ("daemon.paths_evicted", "count", "lower"),
    ("pan.policy_order_self_s", "s", "lower"),
    ("pan.paths_tried_per_send", "ratio", "lower"),
    ("dataplane.hops_per_probe", "ratio", "lower"),
    ("dataplane.router_decide_calls", "count", "lower"),
    ("dataplane.drops", "count", "lower"),
    ("simulator.events", "count", "lower"),
    ("simulator.run_self_s", "s", "lower"),
    ("simulator.events_per_packet", "ratio", "lower"),
    ("simulator.link_transmit_calls", "count", "lower"),
    ("simulator.packets_per_s", "1/s", "higher"),
    ("build.network_self_s", "s", "lower"),
    ("build.hosts_self_s", "s", "lower"),
    ("client.op_p99_us", "us", "lower"),
    ("client.overhead_share", "ratio", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
)


def percentile(ordered: Sequence[int], share: float) -> int:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Slice:
    """What one measured slice produced: per-op times and the loop's wall."""

    def __init__(self, latencies_ns: Sequence[int], wall_ns: int):
        self.latencies_ns = latencies_ns
        self.wall_ns = wall_ns

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.wall_ns / 1e9)

    @property
    def overhead_share(self) -> float:
        """Generator time between ops as a share of the loop's wall."""
        return 1.0 - sum(self.latencies_ns) / self.wall_ns


def op_percentile_us(slices: Sequence[Slice], share: float) -> float:
    """The lowest of the slices' own percentiles (see `end_to_end`).

    Slices too short to have a percentile of their own (`converge`: one build
    per slice) are pooled instead.
    """
    if slices[0].ops < 10:
        pooled = sorted(ns for s in slices for ns in s.latencies_ns)
        return percentile(pooled, share) / 1e3
    return min(percentile(sorted(s.latencies_ns), share) for s in slices) / 1e3


def end_to_end(
    slices: Sequence[Slice], setup_times_s: Sequence[float], peak_rss_mb: float
) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Timings are those of the *least disturbed* slice, not the median slice.
    This box is a shared two-core VM whose neighbours slow it down in
    episodes of seconds to minutes and never speed it up; measured here, the
    fastest slice repeats within 2 % when the box is calm and 14 % when it is
    not, the median slice within 3 % and 17 %.  Every slice does the same
    work, so the fastest one is the program's speed with the least
    interference, which is what two commits are compared on.
    """
    return {
        "ops_per_s": max(s.ops_per_s for s in slices),
        "op_p50_us": op_percentile_us(slices, 0.50),
        "op_p90_us": op_percentile_us(slices, 0.90),
        "setup_s": statistics.median(setup_times_s),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(
    summary: Mapping[str, Mapping[str, float]],
    sizes: Mapping[str, int],
    delta: Mapping[str, float],
    plain: Slice,
    traced: Slice,
    scale_exponent: float,
) -> Dict[str, float]:
    """Every `PER_LAYER` value from one traced slice.

    `summary`/`sizes` are the tracer's spans and result sizes, `delta` the
    change in the program's own counters over the traced slice, `plain` the
    same work untraced.
    """

    def calls(span: str) -> float:
        return summary.get(span, {}).get("calls", 0)

    def self_s(span: str) -> float:
        return summary.get(span, {}).get("self_s", 0.0)

    def counted(key: str) -> float:
        return delta.get(key, 0)

    out: Dict[str, float] = {}
    for span in _SPANS_WITH_CALLS_AND_SELF:
        out[f"{span}_calls"] = calls(span)
        out[f"{span}_self_s"] = self_s(span)
    root = summary.get(ROOT_SPAN, {})
    packets = counted("client.packets")
    out.update({
        "crypto.hop_mac_calls": calls("crypto.hop_mac"),
        "crypto.mac_cache_hit_ratio": _ratio(
            counted("mac.hits"), counted("mac.hits") + counted("mac.misses")
        ),
        "beaconing.run_self_s": self_s("beaconing.run"),
        "beaconing.rounds": counted("beaconing.rounds"),
        "beaconing.beacons_sent": counted("beaconing.beacons_sent"),
        "beaconing.beacons_accepted": counted("beaconing.beacons_accepted"),
        "beaconing.scale_exponent": scale_exponent,
        "path_server.cache_hit_ratio": _ratio(
            counted("registry.cache_hits"), counted("registry.lookups")
        ),
        "path_server.segments_quarantined": counted("registry.segments_quarantined"),
        "combinator.paths_per_call": _ratio(
            sizes.get("combinator.combine", 0), calls("combinator.combine")
        ),
        "network.memo_hit_ratio": (
            1.0 - calls("combinator.combine") / calls("network.paths")
            if calls("network.paths") else 0.0
        ),
        "daemon.cache_hit_ratio": _ratio(
            counted("daemon.cache_hits"), counted("daemon.lookups")
        ),
        "daemon.revocations_received": counted("daemon.revocations_received"),
        "daemon.paths_evicted": counted("daemon.paths_evicted"),
        "pan.policy_order_self_s": self_s("pan.policy_order"),
        "pan.paths_tried_per_send": _ratio(
            counted("client.paths_tried"), calls("pan.send")
        ),
        "dataplane.hops_per_probe": _ratio(
            calls("dataplane.router_decide"), calls("dataplane.probe")
        ),
        "dataplane.router_decide_calls": calls("dataplane.router_decide"),
        "dataplane.drops": counted("client.drops"),
        "simulator.events": counted("simulator.events"),
        "simulator.run_self_s": self_s("simulator.run"),
        "simulator.events_per_packet": _ratio(counted("simulator.events"), packets),
        "simulator.link_transmit_calls": calls("simulator.link_transmit"),
        "simulator.packets_per_s": packets / traced.ops * plain.ops_per_s,
        "build.network_self_s": self_s("build.network"),
        "build.hosts_self_s": self_s("build.hosts"),
        "client.op_p99_us": percentile(sorted(plain.latencies_ns), 0.99) / 1e3,
        "client.overhead_share": plain.overhead_share,
        "bench.trace_overhead_share": _ratio(
            traced.wall_ns / traced.ops, plain.wall_ns / plain.ops
        ) - 1.0,
        "bench.unattributed_share": _ratio(
            root.get("self_s", 0.0), root.get("total_s", 0.0)
        ),
    })
    return out


def units() -> Dict[str, str]:
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update({name: unit for name, unit, _ in PER_LAYER})
    return table

