"""The campaign refresh engine: link-indexed invalidation vs full rescan.

The engine contract is strict: it and the all-pairs reference
(``reference_campaign.py``) must produce record-for-record identical
datasets, because each pair's selection depends only on its own analyses
and current link state.  The engine just avoids re-deriving pairs whose
paths never cross a flipped link.
"""

import pytest

from repro.netsim.failures import FailureSchedule, LinkEvent
from repro.scion.addr import IA
from repro.sciera.build import build_sciera
from repro.sciera.multiping import CampaignStats, DAY_S, MultipingCampaign

from tests.sciera.reference_campaign import FullRescanCampaign


@pytest.fixture(scope="module")
def world():
    return build_sciera(seed=11)


def _reset_links(world):
    for link in world.network.topology.links.values():
        link.set_up(True)


def _run(world, campaign=MultipingCampaign, **kwargs):
    _reset_links(world)
    dataset = campaign(world, **kwargs).run()
    _reset_links(world)
    return dataset


def _pair_links(world, src, dst):
    """Names of every link the pair's analyzed paths traverse."""
    network = world.network
    used = set()
    for meta in network.paths(IA.parse(src), IA.parse(dst)):
        analysis = network.dataplane.analyze(meta.path, network.timestamp)
        for link in analysis.links:
            used.add(link.name)
    return used


class TestEquivalence:
    def test_incremental_matches_full_rescan_on_default_schedule(self, world):
        """Acceptance: byte-identical datasets, >= 3x less refresh work."""
        config = dict(duration_s=20 * DAY_S, interval_s=4 * 3600.0, seed=3)
        incremental = _run(world, **config)
        full = _run(world, campaign=FullRescanCampaign, **config)
        assert incremental.records == full.records
        assert incremental.events == full.events
        assert incremental.stats.refresh_events == full.stats.refresh_events
        assert full.stats.pairs_refreshed >= 3 * incremental.stats.pairs_refreshed
        # The incremental run never falls back to all-pairs rounds after
        # the initial sweep; the full run pays one per dirty interval.
        assert incremental.stats.full_refreshes == 1
        assert full.stats.full_refreshes > 1
        assert full.stats.incremental_refreshes == 0


class TestLinkIndex:
    def test_event_on_unused_link_refreshes_nothing(self, world):
        src, dst = "71-225", "71-2:0:5c"
        used = _pair_links(world, src, dst)
        unused = sorted(set(world.network.topology.links) - used)
        assert unused, "expected at least one link the pair never uses"
        schedule = FailureSchedule()
        schedule.add_event(LinkEvent(DAY_S, unused[0], up=False, reason="test"))
        schedule.add_event(
            LinkEvent(1.5 * DAY_S, unused[0], up=True, reason="test")
        )
        dataset = _run(
            world, duration_s=2 * DAY_S, interval_s=12 * 3600.0,
            sources=(src,), destinations=(dst,), schedule=schedule, seed=5,
        )
        assert dataset.stats.refresh_events == 2
        assert dataset.stats.incremental_refreshes == 0
        assert dataset.stats.pairs_refreshed == 1  # the initial sweep only
        assert dataset.stats.analyses_run == 1

    def test_event_on_used_link_refreshes_the_pair(self, world):
        src, dst = "71-225", "71-2:0:5c"
        used = sorted(_pair_links(world, src, dst))
        assert used
        schedule = FailureSchedule()
        schedule.add_event(LinkEvent(DAY_S, used[0], up=False, reason="test"))
        schedule.add_event(
            LinkEvent(1.5 * DAY_S, used[0], up=True, reason="test")
        )
        dataset = _run(
            world, duration_s=2 * DAY_S, interval_s=12 * 3600.0,
            sources=(src,), destinations=(dst,), schedule=schedule, seed=5,
        )
        assert dataset.stats.refresh_events == 2
        assert dataset.stats.incremental_refreshes >= 1
        assert dataset.stats.pairs_refreshed >= 2  # initial sweep + refresh


class TestConfiguration:
    def test_stats_describe_and_dict(self):
        stats = CampaignStats(
            analyses_run=10, refresh_events=4, pairs_refreshed=7,
            full_refreshes=1, incremental_refreshes=3,
        )
        assert stats.as_dict()["pairs_refreshed"] == 7
        assert "7 pair refreshes" in stats.describe()
        assert "4 link events" in stats.describe()
