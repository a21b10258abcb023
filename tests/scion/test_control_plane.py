"""Tests for beaconing, segment verification, path servers and combination.

These run on the small synthetic topologies from conftest.py and check the
control-plane invariants the paper relies on: authenticated segments,
loop-free beacons, multipath combination, shortcuts and peering.
"""

import dataclasses

import pytest

from repro.scion.addr import IA
from repro.scion.control.combinator import (
    CombinatorError,
    CoreHalf,
    combine_paths,
)
from repro.scion.control.segments import Beacon, BeaconError
from repro.scion.crypto.rsa import RsaKeyPair

A = IA.parse("71-100")
B = IA.parse("71-200")
C1 = IA.parse("71-1")
C2 = IA.parse("71-2")


class TestBeaconing:
    def test_beaconing_converges(self, diamond_network):
        assert diamond_network.beaconing.stats.rounds >= 1
        assert diamond_network.beaconing.stats.beacons_accepted > 0

    def test_no_invalid_beacons_in_honest_network(self, diamond_network):
        assert diamond_network.beaconing.stats.beacons_rejected_invalid == 0

    def test_leaf_has_up_segments_from_both_parents(self, diamond_network):
        ups = diamond_network.services[A].path_server.up_segments
        origins = {str(seg.origin_ia) for seg in ups}
        assert origins == {"71-1", "71-2"}
        # A is dual-homed: at least one up segment per parent link.
        assert len(ups) >= 2

    def test_core_segments_exist_in_both_directions(self, diamond_network):
        c12 = diamond_network.registry.core_segments(origin=C1, terminal=C2)
        c21 = diamond_network.registry.core_segments(origin=C2, terminal=C1)
        # Two parallel core links => two distinct segments per direction.
        assert len(c12) >= 2
        assert len(c21) >= 2

    def test_beacons_are_loop_free(self, diamond_network):
        for store in diamond_network.beaconing.down_stores.values():
            for beacon in store.all_beacons():
                sequence = [str(ia) for ia in beacon.as_sequence()]
                assert len(sequence) == len(set(sequence))

    def test_stored_beacons_verify(self, diamond_network):
        net = diamond_network
        resolver = Beacon.make_validating_key_resolver(
            net.cert_chain, net.trc_for, net.timestamp
        )
        for store in net.beaconing.down_stores.values():
            for beacon in store.all_beacons():
                net.beaconing.terminate(beacon).verify(resolver)

    def test_tampered_beacon_rejected(self, diamond_network):
        net = diamond_network
        resolver = Beacon.make_validating_key_resolver(
            net.cert_chain, net.trc_for, net.timestamp
        )
        beacon = net.services[A].path_server.up_segments[0]
        entry = beacon.entries[0]
        forged_hop = dataclasses.replace(entry.hop, cons_egress=99)
        forged_entry = dataclasses.replace(entry, hop=forged_hop)
        forged = Beacon(
            beacon.timestamp, beacon.seg_id,
            (forged_entry,) + beacon.entries[1:],
        )
        with pytest.raises(BeaconError):
            forged.verify(resolver)

    def test_beacon_signed_by_wrong_key_rejected(self, diamond_network):
        net = diamond_network
        resolver = Beacon.make_validating_key_resolver(
            net.cert_chain, net.trc_for, net.timestamp
        )
        beacon = net.services[A].path_server.up_segments[0]
        mallory = RsaKeyPair.generate(seed=666)
        # Re-sign the last entry with a key that is not certified.
        forged = Beacon(
            beacon.timestamp, beacon.seg_id,
            beacon.entries[:-1]
            + (dataclasses.replace(beacon.entries[-1], signature=0),),
        ).sign_last(mallory)
        with pytest.raises(BeaconError, match="bad signature"):
            forged.verify(resolver)


class TestPathLookupAndCombination:
    def test_leaf_to_leaf_multipath(self, diamond_network):
        paths = diamond_network.paths(A, B)
        # A reaches B via C2 directly, and via C1 over both parallel core
        # links: at least 3 distinct paths.
        assert len(paths) >= 3
        fingerprints = {p.fingerprint for p in paths}
        assert len(fingerprints) == len(paths)

    def test_paths_sorted_shortest_first(self, diamond_network):
        paths = diamond_network.paths(A, B)
        lengths = [p.path.num_as_hops() for p in paths]
        assert lengths == sorted(lengths)

    def test_paths_to_core_as(self, diamond_network):
        paths = diamond_network.paths(A, C1)
        assert paths
        for meta in paths:
            assert meta.as_sequence[0] == A
            assert meta.as_sequence[-1] == C1

    def test_paths_from_core_as(self, diamond_network):
        paths = diamond_network.paths(C1, B)
        assert paths
        assert all(meta.as_sequence[0] == C1 for meta in paths)

    def test_core_to_core(self, diamond_network):
        paths = diamond_network.paths(C1, C2)
        assert len(paths) >= 2  # two parallel core links

    def test_same_as_returns_empty(self, diamond_network):
        assert diamond_network.paths(A, A) == []

    def test_callers_cannot_corrupt_the_paths_memo(self, diamond_network):
        """Regression: ``paths()`` handed out its memoised list, so a
        caller's ``clear()`` or in-place sort changed the next lookup."""
        first = diamond_network.paths(A, B)
        want = [meta.fingerprint for meta in first]
        first.reverse()
        first.clear()
        again = diamond_network.paths(A, B)
        assert [meta.fingerprint for meta in again] == want
        assert again is not diamond_network.paths(A, B)

    def test_all_paths_probe_successfully(self, diamond_network):
        for meta in diamond_network.paths(A, B):
            result = diamond_network.probe(meta)
            assert result.success, result.failure

    def test_latency_estimates_match_link_sums(self, diamond_network):
        # Shortest path A->C2->B: 6ms + 4ms plus processing overhead.
        shortest = diamond_network.paths(A, B)[0]
        assert shortest.latency_estimate_s == pytest.approx(0.010, abs=0.001)

    def test_combinator_rejects_foreign_segments(self, diamond_network):
        ups = diamond_network.services[A].path_server.up_segments
        with pytest.raises(CombinatorError):
            CoreHalf(B, ups, [])
        downs = diamond_network.registry.down_segments(B)
        with pytest.raises(CombinatorError):
            combine_paths(CoreHalf(A, ups, []), C1, downs)


class TestShortcut:
    def test_shortcut_avoids_core(self, shortcut_network):
        a, b = IA.parse("71-100"), IA.parse("71-200")
        paths = shortcut_network.paths(a, b)
        assert paths
        shortest = paths[0]
        sequence = [str(ia) for ia in shortest.as_sequence]
        # The shortcut goes A -> M -> B without touching the core.
        assert sequence == ["71-100", "71-10", "71-200"]
        assert shortcut_network.probe(shortest).success

    def test_non_shortcut_path_also_exists(self, shortcut_network):
        a, b = IA.parse("71-100"), IA.parse("71-200")
        sequences = [
            [str(ia) for ia in meta.as_sequence]
            for meta in shortcut_network.paths(a, b)
        ]
        assert ["71-100", "71-10", "71-1", "71-10", "71-200"] in sequences

    def test_on_path_destination(self, shortcut_network):
        """Reaching your own parent uses the trivial one-hop path."""
        a, m = IA.parse("71-100"), IA.parse("71-10")
        paths = shortcut_network.paths(a, m)
        assert paths
        sequence = [str(ia) for ia in paths[0].as_sequence]
        assert sequence == ["71-100", "71-10"]
        assert shortcut_network.probe(paths[0]).success


class TestPeering:
    def test_peering_path_exists_and_probes(self, peering_network):
        a, b = IA.parse("71-100"), IA.parse("71-200")
        paths = peering_network.paths(a, b)
        sequences = [[str(ia) for ia in m.as_sequence] for m in paths]
        peer_route = ["71-100", "71-10", "71-20", "71-200"]
        assert peer_route in sequences
        meta = paths[sequences.index(peer_route)]
        assert peering_network.probe(meta).success

    def test_peering_path_is_fastest(self, peering_network):
        # The peer link (2 ms) beats the core detour (50 ms core link).
        a, b = IA.parse("71-100"), IA.parse("71-200")
        paths = peering_network.paths(a, b)
        fastest = min(paths, key=lambda m: m.latency_estimate_s)
        assert [str(ia) for ia in fastest.as_sequence] == [
            "71-100", "71-10", "71-20", "71-200",
        ]

    def test_core_route_also_available(self, peering_network):
        a, b = IA.parse("71-100"), IA.parse("71-200")
        sequences = [
            [str(ia) for ia in m.as_sequence]
            for m in peering_network.paths(a, b)
        ]
        assert ["71-100", "71-10", "71-1", "71-2", "71-20", "71-200"] in sequences

    def test_latency_estimate_matches_probe_on_every_path(self, peering_network):
        """The static estimate must charge the peer link at the peering
        boundary — twice the one-way estimate is the probed RTT."""
        a, b = IA.parse("71-100"), IA.parse("71-200")
        for meta in peering_network.paths(a, b):
            probe = peering_network.probe(meta)
            assert probe.success
            estimate = peering_network.dataplane.path_latency_s(meta.path)
            assert 2 * estimate == pytest.approx(probe.rtt_s)


class TestPathServer:
    def test_lookup_timing_and_cache(self, diamond_network):
        server = diamond_network.services[A].path_server
        server.invalidate_cache()
        _, _, _, timing1 = server.segments_for(B)
        assert not timing1.cached
        assert timing1.round_trips == 1
        assert timing1.latency_s > 0
        _, _, _, timing2 = server.segments_for(B)
        assert timing2.cached
        assert timing2.latency_s == 0.0

    def test_returns_immutable_tuples(self, fresh_diamond_network):
        """Callers must not be able to corrupt the server's cache."""
        server = fresh_diamond_network.services[A].path_server
        ups, cores, downs, _ = server.segments_for(B)
        assert isinstance(ups, tuple)
        assert isinstance(cores, tuple)
        assert isinstance(downs, tuple)
        ups2, cores2, downs2, timing = server.segments_for(B)
        assert timing.cached
        assert (ups2, cores2, downs2) == (ups, cores, downs)

    def test_cache_invalidated_by_later_registration(self, fresh_diamond_network):
        """A segment registered after a cached lookup must become visible:
        the cache is versioned against the registry mutation counter."""
        server = fresh_diamond_network.services[A].path_server
        _, _, downs, _ = server.segments_for(B)
        _, _, _, timing = server.segments_for(B)
        assert timing.cached
        version_before = server.registry.version
        server.registry.register_down(downs[0])
        assert server.registry.version > version_before
        _, _, downs2, timing2 = server.segments_for(B)
        assert not timing2.cached          # stale entry recomputed
        assert downs2 == downs             # re-registration deduplicates

    def test_cache_invalidated_by_up_segment_registration(
        self, fresh_diamond_network
    ):
        server = fresh_diamond_network.services[A].path_server
        ups, _, _, _ = server.segments_for(B)
        _, _, _, timing = server.segments_for(B)
        assert timing.cached
        server.register_up(ups[0])
        _, _, _, timing2 = server.segments_for(B)
        assert not timing2.cached

    def test_stats_stay_consistent_on_cache_hits(self, fresh_diamond_network):
        """A cached hit counts as a lookup too, so hit_rate <= 1."""
        server = fresh_diamond_network.services[A].path_server
        stats = server.registry.stats
        server.segments_for(B)
        lookups, hits = stats.lookups, stats.cache_hits
        server.segments_for(B)
        assert stats.lookups == lookups + 1
        assert stats.cache_hits == hits + 1
        assert 0.0 <= stats.hit_rate <= 1.0

    def test_remote_isd_lookup_costs_more(self):
        from repro.scion.topology import GlobalTopology, LinkType
        from repro.scion.network import ScionNetwork

        topo = GlobalTopology()
        c64, c71 = IA.parse("64-1"), IA.parse("71-1")
        leaf64, leaf71 = IA.parse("64-100"), IA.parse("71-100")
        topo.add_as(c64, is_core=True)
        topo.add_as(c71, is_core=True)
        topo.add_as(leaf64)
        topo.add_as(leaf71)
        topo.add_link(c64, c71, LinkType.CORE, 0.01)
        topo.add_link(leaf64, c64, LinkType.PARENT, 0.002)
        topo.add_link(leaf71, c71, LinkType.PARENT, 0.002)
        net = ScionNetwork(topo, seed=3)

        server = net.services[leaf64].path_server
        _, _, _, local = server.segments_for(c64)
        _, _, _, remote = server.segments_for(leaf71)
        assert remote.round_trips > local.round_trips
        assert remote.latency_s > local.latency_s
        # And the cross-ISD path actually works end to end.
        paths = net.paths(leaf64, leaf71)
        assert paths
        assert net.probe(paths[0]).success
