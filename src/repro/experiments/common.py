"""Shared, cached heavyweight objects for the experiment suite.

Building the SCIERA world (PKI + beaconing over 30 ASes) takes seconds and
running a measurement campaign takes tens of seconds; experiments share
one world and one campaign per (fast/full) configuration so the whole
suite stays runnable in one sitting.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.scion.addr import IA
from repro.scion.topology import GlobalTopology, LinkType
from repro.sciera.build import ScieraWorld, build_sciera
from repro.sciera.multiping import CampaignDataset, DAY_S, MultipingCampaign

_WORLD: Optional[ScieraWorld] = None
_CAMPAIGNS: Dict[bool, CampaignDataset] = {}

#: Fast mode keeps the full 20-day window (the Figure 7/9 event story
#: needs it) but samples at 4 h instead of 30 min.
FAST_DURATION_S = 20 * DAY_S
FAST_INTERVAL_S = 4 * 3600.0
FULL_DURATION_S = 20 * DAY_S
FULL_INTERVAL_S = 1800.0


def get_world() -> ScieraWorld:
    """The shared SCIERA world (deterministic seed)."""
    global _WORLD
    if _WORLD is None:
        _WORLD = build_sciera(seed=1)
    return _WORLD


def get_campaign(fast: bool = True) -> CampaignDataset:
    """The shared measurement campaign dataset."""
    if fast not in _CAMPAIGNS:
        duration = FAST_DURATION_S if fast else FULL_DURATION_S
        interval = FAST_INTERVAL_S if fast else FULL_INTERVAL_S
        campaign = MultipingCampaign(
            get_world(), duration_s=duration, interval_s=interval, seed=3,
        )
        _CAMPAIGNS[fast] = campaign.run()
        # The campaign leaves links in their end-of-campaign state; restore
        # everything to nominal for subsequent experiments.
        for link in get_world().network.topology.links.values():
            link.set_up(True)
    return _CAMPAIGNS[fast]


def diamond_topology(third_leaf: bool = False) -> GlobalTopology:
    """The fault experiments' toy world: two cores (parallel links),
    dual-homed leaf A (71-100), leaf B (71-200) under core 2 and, with
    ``third_leaf``, leaf C (71-300) under core 1.

    Insertion order is part of the contract: interface ids, and with them
    every seeded fault-stream digest, follow from it.
    """
    topo = GlobalTopology()
    c1, c2 = IA.parse("71-1"), IA.parse("71-2")
    a, b, c = IA.parse("71-100"), IA.parse("71-200"), IA.parse("71-300")
    topo.add_as(c1, is_core=True, name="core1")
    topo.add_as(c2, is_core=True, name="core2")
    topo.add_as(a, name="leafA")
    topo.add_as(b, name="leafB")
    if third_leaf:
        topo.add_as(c, name="leafC")
    topo.add_link(c1, c2, LinkType.CORE, 0.010, link_name="c1c2-a")
    topo.add_link(c1, c2, LinkType.CORE, 0.020, link_name="c1c2-b")
    topo.add_link(a, c1, LinkType.PARENT, 0.005, link_name="a-c1")
    topo.add_link(a, c2, LinkType.PARENT, 0.006, link_name="a-c2")
    topo.add_link(b, c2, LinkType.PARENT, 0.004, link_name="b-c2")
    if third_leaf:
        topo.add_link(c, c1, LinkType.PARENT, 0.007, link_name="c-c1")
    return topo


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def campaign_engine_note(dataset: CampaignDataset) -> str:
    """One details line surfacing the refresh engine's counters."""
    return "  campaign engine: " + dataset.stats.describe()
