"""Tests for the SCIERA topology data and the IP baseline."""

import pytest

from repro.scion.addr import IA
from repro.sciera.topology_data import (
    FIG8_ASES,
    MEASUREMENT_VANTAGE_POINTS,
    SCIERA_LINKS,
    SCIERA_PARTICIPANTS,
    SCIERA_POPS,
    build_ip_internet,
    build_sciera_topology,
    link_latency_s,
    participant,
)


class TestParticipants:
    def test_all_figure1_ases_present(self):
        ias = {p.ia for p in SCIERA_PARTICIPANTS}
        # Spot-check the ASes named in the paper's text and figures.
        for expected in (
            "71-20965", "71-559", "71-1140", "71-2546", "71-2:0:42",
            "71-2:0:49", "71-203311", "71-225", "71-88", "71-2:0:48",
            "71-398900", "71-2:0:35", "71-2:0:3b", "71-2:0:3c", "71-2:0:3d",
            "71-2:0:3e", "71-2:0:3f", "71-2:0:40", "71-2:0:18", "71-2:0:61",
            "71-2:0:4d", "71-4158", "71-50999", "71-1916", "71-2:0:5c",
            "71-37288", "64-559", "64-2:0:9",
        ):
            assert expected in ias, expected

    def test_isd_structure(self):
        """All ASes in ISD 71 except the two Swiss ISD 64 ASes."""
        isd64 = [p for p in SCIERA_PARTICIPANTS if p.ia.startswith("64-")]
        assert len(isd64) == 2
        assert all(p.ia.startswith("71-") for p in SCIERA_PARTICIPANTS
                   if p not in isd64)

    def test_core_ases_match_paper(self):
        cores = {p.ia for p in SCIERA_PARTICIPANTS if p.is_core}
        # GEANT, BRIDGES, the six KISTI PoPs, and the ISD 64 core.
        assert cores == {
            "71-20965", "71-2:0:35", "71-2:0:3b", "71-2:0:3c", "71-2:0:3d",
            "71-2:0:3e", "71-2:0:3f", "71-2:0:40", "64-559",
        }

    def test_five_continents(self):
        regions = {p.region for p in SCIERA_PARTICIPANTS if not p.planned}
        assert {"EU", "NA", "ASIA", "SA", "AF"} <= regions

    def test_ufpr_is_planned_only(self):
        assert participant("71-10881").planned
        topo = build_sciera_topology()
        assert IA.parse("71-10881") not in topo.ases

    def test_heterogeneous_flavors(self):
        """Section 4.5: both implementations must be present."""
        flavors = {p.flavor for p in SCIERA_PARTICIPANTS}
        assert flavors == {"open-source", "anapaya"}

    def test_unknown_participant_raises(self):
        with pytest.raises(KeyError):
            participant("99-999")


class TestTopologyConstruction:
    def test_topology_validates(self):
        build_sciera_topology().validate()

    def test_kreonet_ring_closed(self):
        """The ring: AMS - CHG - STL - DJ - HK - SG - AMS."""
        names = {link.name for link in SCIERA_LINKS}
        for leg in ("kreonet-ams-chg", "kreonet-chg-stl", "kreonet-stl-dj",
                    "kreonet-dj-hk", "kreonet-hk-sg", "kreonet-sg-ams"):
            assert leg in names, leg

    def test_four_sg_ams_options(self):
        """KREONET + CAE-1 + KAUST I & II = four SG-AMS circuits."""
        sg_ams = [
            link for link in SCIERA_LINKS
            if {link.a, link.b} == {"71-2:0:3d", "71-2:0:3e"}
        ]
        assert len(sg_ams) == 4

    def test_wacren_has_two_vlans(self):
        wacren = [l for l in SCIERA_LINKS if l.a == "71-37288"]
        assert len(wacren) == 2

    def test_ufms_two_last_mile_links(self):
        ufms = [l for l in SCIERA_LINKS if l.a == "71-2:0:5c"]
        assert len(ufms) == 2
        assert all(l.b == "71-1916" for l in ufms)

    def test_latencies_physical(self):
        """Every link's latency is plausible for its distance."""
        for link in SCIERA_LINKS:
            latency = link_latency_s(link)
            assert 0.0001 < latency < 0.2, link.name

    def test_transpacific_longer_than_metro(self):
        by_name = {l.name: l for l in SCIERA_LINKS}
        assert (
            link_latency_s(by_name["kreonet-stl-dj"])
            > 10 * link_latency_s(by_name["eth-switch"])
        )


class TestMeasurementSets:
    def test_eleven_vantage_points(self):
        assert len(MEASUREMENT_VANTAGE_POINTS) == 11

    def test_vantage_regional_split(self):
        """5 EU, 2 Asia, 3 NA, 1 SA (paper Section 5.4)."""
        regions = [participant(ia).region for ia in MEASUREMENT_VANTAGE_POINTS]
        assert regions.count("EU") == 5
        assert regions.count("ASIA") == 2
        assert regions.count("NA") == 3
        assert regions.count("SA") == 1

    def test_fig8_nine_ases(self):
        assert len(FIG8_ASES) == 9
        for ia in FIG8_ASES:
            assert participant(ia) is not None

    def test_table1_sixteen_pops(self):
        assert len(SCIERA_POPS) == 16


class TestIpBaseline:
    def test_all_participants_routable(self):
        net = build_ip_internet()
        actives = [p.ia for p in SCIERA_PARTICIPANTS if not p.planned]
        for src in actives[:6]:
            for dst in actives:
                if src != dst:
                    assert net.rtt_s(src, dst) is not None, (src, dst)

    def test_single_path_semantics(self):
        net = build_ip_internet()
        r1 = net.route("71-225", "71-2:0:5c")
        r2 = net.route("71-225", "71-2:0:5c")
        assert r1.hops == r2.hops

    def test_pair_inflation_applied_and_deterministic(self):
        net1, net2 = build_ip_internet(), build_ip_internet()
        assert net1.rtt_s("71-225", "71-2:0:5c") == net2.rtt_s("71-225", "71-2:0:5c")

    def test_intercontinental_rtt_plausible(self):
        net = build_ip_internet()
        # Charlottesville -> Campo Grande: about 100-250 ms RTT.
        rtt = net.rtt_s("71-225", "71-2:0:5c")
        assert 0.08 < rtt < 0.40
        # Zurich pair: a few ms.
        assert net.rtt_s("64-559", "64-2:0:9") < 0.02
