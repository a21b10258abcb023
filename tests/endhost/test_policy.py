"""Tests for path policies on real paths from the synthetic networks."""

import pytest

from repro.endhost.policy import (
    GeofencePolicy,
    LowestLatencyPolicy,
    PolicyError,
    PreferencePolicy,
    ShortestPolicy,
    policy_from_commandline,
)
from repro.scion.addr import IA

A = IA.parse("71-100")
B = IA.parse("71-200")


@pytest.fixture(scope="module")
def paths(diamond_network):
    return diamond_network.paths(A, B)


class TestBasicPolicies:
    def test_shortest_orders_by_hops(self, paths):
        ordered = ShortestPolicy().order(paths)
        hops = [p.path.num_as_hops() for p in ordered]
        assert hops == sorted(hops)

    def test_lowest_latency(self, paths):
        ordered = LowestLatencyPolicy().order(paths)
        latencies = [p.latency_estimate_s for p in ordered]
        assert latencies == sorted(latencies)

    def test_lowest_latency_prefers_measured_rtt(self, paths):
        import dataclasses

        slow_but_measured_fast = dataclasses.replace(
            paths[-1], measured_rtt_s=0.0001
        )
        candidates = [paths[0], slow_but_measured_fast]
        best = LowestLatencyPolicy().best(candidates)
        assert best is slow_but_measured_fast

    def test_green_orders_by_carbon(self, paths):
        ordered = PreferencePolicy("carbon").order(paths)
        carbon = [p.carbon_gco2_per_gb for p in ordered]
        assert carbon == sorted(carbon)

    def test_best_of_empty_is_none(self):
        assert ShortestPolicy().best([]) is None


class TestGeofence:
    def test_forbidden_as_filters_paths(self, paths):
        c1 = IA.parse("71-1")
        fenced = GeofencePolicy(forbidden_ases=[c1]).order(paths)
        assert fenced
        for meta in fenced:
            assert c1 not in meta.as_sequence

    def test_forbidden_isd_filters_everything_here(self, paths):
        assert GeofencePolicy(forbidden_isds=[71]).order(paths) == []

    def test_allowed_isds(self, paths):
        assert GeofencePolicy(allowed_isds=[71]).order(paths) == list(paths)
        assert GeofencePolicy(allowed_isds=[64]).order(paths) == []


class TestPreferenceAndCommandline:
    def test_preference_latency(self, paths):
        ordered = PreferencePolicy("latency").order(paths)
        assert ordered[0].latency_estimate_s == min(
            p.latency_estimate_s for p in paths
        )

    def test_preference_multiple_criteria(self, paths):
        ordered = PreferencePolicy("hops,latency").order(paths)
        assert ordered[0].path.num_as_hops() == min(
            p.path.num_as_hops() for p in paths
        )

    def test_unknown_criterion_rejected(self):
        with pytest.raises(PolicyError, match="unknown preference"):
            PreferencePolicy("latency,vibes")
        with pytest.raises(PolicyError):
            PreferencePolicy("")

    def test_disjointness_is_not_a_criterion(self):
        # PAN's disjointness ranks against reference paths, which a
        # command line cannot name: the flag is refused, not ignored.
        with pytest.raises(
            PolicyError, match=r"available: latency\|hops\|carbon"
        ):
            PreferencePolicy("disjointness")

    def test_commandline_combination(self, paths):
        policy = policy_from_commandline(
            preference="latency", interactive=True, chooser=lambda ordered: 0
        )
        ordered = policy.order(paths)
        assert ordered[0].latency_estimate_s == min(
            p.latency_estimate_s for p in paths
        )

    def test_commandline_interactive(self, paths):
        chooser_calls = []

        def chooser(ordered):
            chooser_calls.append(len(ordered))
            return len(ordered) - 1  # the human picks the last one

        policy = policy_from_commandline(interactive=True, chooser=chooser)
        ordered = policy.order(paths)
        assert chooser_calls
        baseline = ShortestPolicy().order(paths)
        assert ordered[0] is baseline[-1]

    def test_interactive_needs_chooser(self):
        with pytest.raises(PolicyError, match="chooser"):
            policy_from_commandline(interactive=True)

    def test_interactive_bad_index_rejected(self, paths):
        policy = policy_from_commandline(
            interactive=True, chooser=lambda ordered: 999
        )
        with pytest.raises(PolicyError, match="invalid index"):
            policy.order(paths)

    def test_default_commandline_is_shortest(self, paths):
        policy = policy_from_commandline()
        assert policy.order(paths) == ShortestPolicy().order(paths)
