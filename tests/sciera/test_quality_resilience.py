"""Tests for Figures 10a/10b/10c machinery and the Science-DMZ pieces."""

import pytest

from repro.scion.addr import IA
from repro.scion.crypto.keys import SymmetricKey
from repro.sciera.hercules import HerculesError, HerculesTransfer, datapath_ablation
from repro.sciera.lightningfilter import LightningFilter
from repro.sciera.paths_quality import (
    fig10a_latency_inflation,
    fig10b_path_disjointness,
)
from repro.sciera.resilience import fig10c_link_failure_sim
from repro.sciera.topology_data import FIG8_ASES


@pytest.fixture(scope="module")
def world(sciera_world):
    """Read-only here: nothing in this module breaks a link or revokes."""
    return sciera_world


class TestFig10a:
    def test_inflation_at_least_one(self, world):
        result = fig10a_latency_inflation(world, FIG8_ASES)
        assert all(v >= 1.0 for v in result.pair_inflation.values())

    def test_most_pairs_have_close_alternative(self, world):
        result = fig10a_latency_inflation(world, FIG8_ASES)
        assert result.frac_below_1_2 > 0.5

    def test_cdf_monotone(self, world):
        result = fig10a_latency_inflation(world, FIG8_ASES)
        xs, ys = result.cdf()
        assert list(xs) == sorted(xs)
        assert ys[-1] == pytest.approx(1.0)


class TestFig10b:
    def test_disjointness_in_unit_interval(self, world):
        result = fig10b_path_disjointness(world, FIG8_ASES[:5])
        assert all(0.0 <= v <= 1.0 for v in result.disjointness)

    def test_some_fully_disjoint_combinations(self, world):
        result = fig10b_path_disjointness(world, FIG8_ASES)
        assert result.frac_fully_disjoint > 0.1
        assert result.combinations > 100


class TestFig10c:
    def test_boundary_conditions(self, world):
        result = fig10c_link_failure_sim(world.network.topology, runs=5)
        # Nothing removed: full connectivity both ways.
        assert result.multipath_connectivity[0] == pytest.approx(1.0)
        assert result.singlepath_connectivity[0] == pytest.approx(1.0)
        # Everything removed: nothing connected.
        assert result.multipath_connectivity[-1] == pytest.approx(0.0)
        assert result.singlepath_connectivity[-1] == pytest.approx(0.0)

    def test_multipath_dominates_singlepath(self, world):
        result = fig10c_link_failure_sim(world.network.topology, runs=10)
        for multi, single in zip(
            result.multipath_connectivity, result.singlepath_connectivity
        ):
            assert multi >= single - 1e-9

    def test_gap_is_substantial_at_20pct(self, world):
        result = fig10c_link_failure_sim(world.network.topology, runs=20)
        assert result.multipath_at(0.2) - result.singlepath_at(0.2) > 0.10

    def test_connectivity_decreases_monotonically_on_average(self, world):
        result = fig10c_link_failure_sim(world.network.topology, runs=10)
        series = result.multipath_connectivity
        # Allow tiny numeric wiggle, but the trend must be downward.
        assert series[0] > series[len(series) // 2] > series[-1]

    def test_invalid_runs_rejected(self, world):
        with pytest.raises(ValueError):
            fig10c_link_failure_sim(world.network.topology, runs=0)


class TestLightningFilter:
    def make_filter(self, **kw):
        return LightningFilter(
            IA.parse("71-2:0:3b"), SymmetricKey(b"f" * 32), **kw
        )

    def test_authenticated_packet_accepted(self):
        lf = self.make_filter()
        tag = lf.compute_auth_tag("71-20965", b"payload")
        assert lf.process("71-20965", b"payload", tag, now_s=0.0)
        assert lf.stats.accepted == 1

    def test_forged_tag_rejected(self):
        lf = self.make_filter()
        assert not lf.process("71-20965", b"payload", b"\x00" * 16, now_s=0.0)
        assert lf.stats.rejected_auth == 1

    def test_tag_bound_to_source_as(self):
        lf = self.make_filter()
        tag = lf.compute_auth_tag("71-20965", b"payload")
        assert not lf.process("71-225", b"payload", tag, now_s=0.0)

    def test_rate_limiting(self):
        lf = self.make_filter(rate_limit_pps=10.0, burst=5.0)
        tag = lf.compute_auth_tag("71-20965", b"x")
        accepted = sum(
            lf.process("71-20965", b"x", tag, now_s=0.0) for _ in range(20)
        )
        assert accepted == 5  # burst exhausted, no time has passed
        assert lf.stats.rejected_rate == 15
        # Tokens refill with time.
        assert lf.process("71-20965", b"x", tag, now_s=1.0)

    def test_line_rate_claim(self):
        """The paper's 100 Gbps line-rate claim at MTU-sized packets."""
        lf = self.make_filter(cores=8)
        assert lf.saturates_100g(packet_bytes=1500)
        assert not LightningFilter(
            IA.parse("71-1"), SymmetricKey(b"f" * 32), cores=1
        ).saturates_100g()


class TestHercules:
    def test_transfer_uses_multiple_paths(self, world):
        transfer = HerculesTransfer(
            world.network, IA.parse("71-2:0:3b"), IA.parse("71-20965")
        )
        report = transfer.run(size_bytes=10 * 1024**3)
        assert report.paths_used >= 2
        assert report.goodput_bps > 0
        assert report.duration_s > 0
        assert sum(a.bytes_assigned for a in report.allocations) <= report.size_bytes

    def test_disjoint_paths_aggregate_bandwidth(self, world):
        transfer = HerculesTransfer(
            world.network, IA.parse("71-2:0:3d"), IA.parse("71-2:0:3e"),
        )
        single = transfer.run(size_bytes=1024**3, max_paths=1)
        multi = transfer.run(size_bytes=1024**3, max_paths=4)
        # SG-AMS has four parallel circuits: multipath must beat one path.
        assert multi.goodput_bps > single.goodput_bps

    def test_dispatcher_is_the_bottleneck(self, world):
        reports = datapath_ablation(
            world.network, IA.parse("71-2:0:3b"), IA.parse("71-20965"),
            size_bytes=1024**3,
        )
        assert reports["dispatcher"].endhost_limited
        assert (
            reports["xdp-bypass"].goodput_bps
            > 2 * reports["dispatcher"].goodput_bps
        )
        assert (
            reports["dispatcherless"].goodput_bps
            > reports["dispatcher"].goodput_bps
        )
        assert (
            reports["xdp-bypass"].goodput_bps
            >= reports["dispatcherless"].goodput_bps
        )

    def test_invalid_size_rejected(self, world):
        transfer = HerculesTransfer(
            world.network, IA.parse("71-2:0:3b"), IA.parse("71-20965")
        )
        with pytest.raises(HerculesError):
            transfer.run(size_bytes=0)
