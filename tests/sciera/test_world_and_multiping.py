"""Integration tests: the built SCIERA world and the multiping campaign."""

import pytest

from repro.scion.addr import IA
from repro.sciera.build import build_sciera
from repro.sciera.multiping import (
    DAY_S,
    MultipingCampaign,
    sciera_campaign_schedule,
)
from repro.sciera.analysis import (
    fig5_latency_cdf,
    fig6_ratio_cdf,
    fig7_ratio_over_time,
)


@pytest.fixture(scope="module")
def world():
    return build_sciera(seed=11)


@pytest.fixture(scope="module")
def short_campaign(world):
    """A 2-day slice of the campaign (covers no scheduled outages)."""
    dataset = MultipingCampaign(
        world, duration_s=2 * DAY_S, interval_s=4 * 3600, seed=5
    ).run()
    for link in world.network.topology.links.values():
        link.set_up(True)
    return dataset


class TestWorldBuild:
    def test_every_pair_of_participants_has_paths(self, world):
        net = world.network
        ases = sorted(net.topology.ases)
        missing = [
            (src, dst)
            for src in ases for dst in ases
            if src != dst and not net.paths(src, dst)
        ]
        assert missing == []

    def test_cross_isd_connectivity(self, world):
        """ISD 71 hosts reach the Swiss production ISD natively."""
        paths = world.network.paths(IA.parse("71-2:0:42"), IA.parse("64-2:0:9"))
        assert paths
        assert world.network.probe(paths[0]).success

    def test_bootstrap_server_per_participant(self, world):
        assert set(world.bootstrap_servers) == set(world.hosts)
        result = world.bootstrapper_for("71-225").bootstrap()
        assert str(result.topology.ia) == "71-225"

    def test_hosts_can_talk(self, world):
        from repro.endhost.pan import PanContext
        from repro.scion.addr import HostAddr

        server_host = world.host("71-50999")   # KAUST
        client_host = world.host("71-2:0:4d")  # Korea University
        server = PanContext(server_host).open_socket(5001)
        server.on_message(lambda p, s, pm: b"ack")
        client = PanContext(client_host).open_socket()
        result = client.send_to(
            HostAddr(server_host.ia, server_host.ip, 5001), b"data"
        )
        assert result.success
        assert result.reply == b"ack"
        server.close()
        client.close()


class TestCampaign:
    def test_record_counts(self, short_campaign):
        # 12 intervals x sources x (destinations - 1 self for vantage dsts)
        assert len(short_campaign.records) > 1000
        assert short_campaign.pair_count > 200

    def test_scion_rtts_sane(self, short_campaign):
        for r in short_campaign.records[:2000]:
            if r.scion_rtt_s is not None:
                assert 0.0001 < r.scion_rtt_s < 1.5

    def test_stall_exclusion_filters_some_records(self, short_campaign):
        valid = short_campaign.valid_records()
        assert 0 < len(valid) < len(short_campaign.records)

    def test_stalls_only_from_stall_sources(self, short_campaign):
        stall_sources = set(MultipingCampaign.DEFAULT_STALL_SOURCES)
        for r in short_campaign.records:
            if not r.icmp_valid:
                assert r.src in stall_sources

    def test_active_never_exceeds_known(self, short_campaign):
        for r in short_campaign.records:
            assert 0 <= r.active_paths <= r.known_paths

    def test_fig5_statistics(self, short_campaign):
        result = fig5_latency_cdf(short_campaign)
        assert result.scion_median_ms > 0
        assert result.ip_median_ms > 0
        # SCION must improve the tail (the paper's key Figure 5 finding).
        assert result.p90_reduction_pct > 5.0

    def test_fig6_shape(self, short_campaign):
        result = fig6_ratio_cdf(short_campaign)
        # A minority-to-half of pairs faster over SCION; most under 1.25.
        assert 0.2 < result.frac_below_1 < 0.6
        assert result.frac_below_1_25 > 0.7
        assert result.max_ratio > 2.0  # outliers exist

    def test_fig7_series(self, short_campaign):
        result = fig7_ratio_over_time(short_campaign)
        assert len(result.ratio_series) >= 3
        assert all(0.5 < v < 1.5 for v in result.ratio_series)

    def test_invalid_config_rejected(self, world):
        with pytest.raises(ValueError):
            MultipingCampaign(world, duration_s=0)
        with pytest.raises(ValueError):
            MultipingCampaign(world, interval_s=-5)


class TestCampaignEvents:
    def test_schedule_has_the_paper_events(self):
        schedule = sciera_campaign_schedule(20 * DAY_S)
        reasons = {e.reason for e in schedule.events}
        assert any("jan21" in r for r in reasons)
        assert any("korea-sg-cable" in r for r in reasons)
        assert any("bridges-instability" in r for r in reasons)
        assert any("feb6" in r for r in reasons)
        assert any("jan25-new-links" in r for r in reasons)

    def test_short_schedule_clamps(self):
        schedule = sciera_campaign_schedule(1 * DAY_S)
        for event in schedule.events:
            assert event.time_s <= 1 * DAY_S

    def test_cable_cut_reduces_dj_sg_paths(self, world):
        """The Figure 9 mechanism in isolation."""
        net = world.network
        dj, sg = IA.parse("71-2:0:3b"), IA.parse("71-2:0:3d")
        nominal = len(net.active_paths(dj, sg))
        for leg in ("kreonet-dj-hk", "kreonet-dj-hk-2", "kreonet-dj-hk-3",
                    "kreonet-dj-hk-4", "kreonet-hk-sg", "kreonet-hk-sg-2",
                    "kreonet-hk-sg-3", "kreonet-hk-sg-4"):
            net.set_link_state(leg, False)
        degraded = len(net.active_paths(dj, sg))
        for leg in ("kreonet-dj-hk", "kreonet-dj-hk-2", "kreonet-dj-hk-3",
                    "kreonet-dj-hk-4", "kreonet-hk-sg", "kreonet-hk-sg-2",
                    "kreonet-hk-sg-3", "kreonet-hk-sg-4"):
            net.set_link_state(leg, True)
        # Communication continues (westward around the globe) but with
        # far fewer path options — the paper's submarine-cable story.
        assert degraded >= 1
        assert nominal - degraded >= 10
