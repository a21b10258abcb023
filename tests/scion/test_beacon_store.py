"""Unit tests for the beacon store's selection policy."""

from repro.scion.addr import IA
from repro.scion.control.beaconing import BeaconStore
from repro.scion.control.segments import ASEntry, Beacon
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.crypto.rsa import RsaKeyPair
from repro.scion.path import HopField

KEY = SymmetricKey(b"s" * 32)
SIGNER = RsaKeyPair.generate(seed=5)
TS = 1000


def make_beacon(origin_asn: int, hop_path):
    """Build a beacon through the given (asn, ingress, egress) hops."""
    beacon = Beacon.originate(
        IA(71, origin_asn), KEY, SIGNER, TS, egress_ifid=hop_path[0][2]
    )
    beta = beacon.next_beta()
    for asn, ingress, egress in hop_path[1:]:
        hop = HopField.create(
            IA(71, asn), KEY, TS, cons_ingress=ingress,
            cons_egress=egress, beta=beta,
        )
        beacon = Beacon(
            beacon.timestamp, beacon.seg_id,
            beacon.entries + (ASEntry(ia=IA(71, asn), hop=hop),),
        ).sign_last(SIGNER)
        beta = beacon.entries[-1].hop.next_beta()
    return beacon


class TestBeaconStore:
    def test_insert_dedups_by_interfaces(self):
        store = BeaconStore()
        beacon = make_beacon(1, [(1, 0, 5), (2, 3, 0)])
        assert store.insert(beacon)
        assert not store.insert(beacon)
        assert len(store.all_beacons()) == 1

    def test_capacity_eviction_prefers_shorter(self):
        store = BeaconStore(capacity_per_origin=2)
        long1 = make_beacon(1, [(1, 0, 5), (2, 3, 7), (3, 2, 0)])
        long2 = make_beacon(1, [(1, 0, 6), (2, 4, 8), (3, 1, 0)])
        short = make_beacon(1, [(1, 0, 5), (3, 9, 0)])
        assert store.insert(long1)
        assert store.insert(long2)
        assert store.insert(short)  # evicts one of the long ones
        lengths = sorted(len(b) for b in store.all_beacons())
        assert lengths == [2, 3]

    def test_newcomer_longer_than_worst_dropped_at_capacity(self):
        store = BeaconStore(capacity_per_origin=1)
        short = make_beacon(1, [(1, 0, 5), (3, 9, 0)])
        long = make_beacon(1, [(1, 0, 6), (2, 4, 8), (3, 1, 0)])
        assert store.insert(short)
        assert not store.insert(long)
        assert store.all_beacons() == [short]

    def test_equal_length_newcomer_dropped_at_capacity(self):
        """A newcomer only displaces a *strictly longer* beacon: churning
        between equal-length beacons would repeatedly invalidate
        registered segments for no path-quality gain."""
        store = BeaconStore(capacity_per_origin=1)
        first = make_beacon(1, [(1, 0, 5), (3, 9, 0)])
        same_length = make_beacon(1, [(1, 0, 6), (3, 8, 0)])
        assert store.insert(first)
        assert not store.insert(same_length)
        assert store.all_beacons() == [first]

    def test_eviction_removes_exactly_the_longest(self):
        store = BeaconStore(capacity_per_origin=2)
        medium = make_beacon(1, [(1, 0, 5), (2, 3, 7), (3, 2, 0)])
        monster = make_beacon(
            1, [(1, 0, 6), (4, 1, 2), (5, 3, 4), (3, 1, 0)]
        )
        short = make_beacon(1, [(1, 0, 7), (3, 9, 0)])
        assert store.insert(medium)
        assert store.insert(monster)
        assert store.insert(short)
        survivors = store.all_beacons()
        assert monster not in survivors
        assert medium in survivors and short in survivors

    def test_eviction_tie_breaks_deterministically(self):
        """Two equally-long victims: the one with the larger fingerprint
        goes, whichever insertion order produced the bucket."""
        hop_a = [(1, 0, 5), (2, 3, 7), (3, 2, 0)]
        hop_b = [(1, 0, 6), (2, 4, 8), (3, 1, 0)]
        survivors = []
        for order in ([hop_a, hop_b], [hop_b, hop_a]):
            store = BeaconStore(capacity_per_origin=2)
            for hops in order:
                assert store.insert(make_beacon(1, hops))
            assert store.insert(make_beacon(1, [(1, 0, 9), (3, 9, 0)]))
            survivors.append(
                sorted(b.interface_fingerprint() for b in store.all_beacons())
            )
        assert survivors[0] == survivors[1]

    def test_select_bounds_detour(self):
        store = BeaconStore()
        short = make_beacon(1, [(1, 0, 5), (2, 1, 0)])                 # 2 hops
        medium = make_beacon(1, [(1, 0, 6), (3, 2, 4), (2, 9, 0)])    # 3 hops
        monster = make_beacon(
            1,
            [(1, 0, 7), (4, 1, 2), (5, 3, 4), (6, 5, 6), (7, 7, 8),
             (2, 11, 0)],
        )  # 6 hops: detour 4 over the shortest
        for beacon in (short, medium, monster):
            store.insert(beacon)
        selected = store.select(IA(71, 1), k=10)
        assert short in selected
        assert medium in selected
        assert monster not in selected

    def test_select_prefers_interface_diversity(self):
        store = BeaconStore()
        base = make_beacon(1, [(1, 0, 5), (2, 3, 0)])
        clone_ish = make_beacon(1, [(1, 0, 5), (2, 4, 0)])   # shares egress 5
        diverse = make_beacon(1, [(1, 0, 6), (2, 9, 0)])     # all-new ifaces
        for beacon in (base, clone_ish, diverse):
            store.insert(beacon)
        top2 = store.select(IA(71, 1), k=2)
        # The diverse beacon always survives; the two near-clones share
        # interfaces, so at most one of them is kept.
        assert diverse in top2
        assert sum(1 for b in (base, clone_ish) if b in top2) == 1

    def test_origins_sorted(self):
        store = BeaconStore()
        store.insert(make_beacon(2, [(2, 0, 5), (9, 3, 0)]))
        store.insert(make_beacon(1, [(1, 0, 5), (9, 4, 0)]))
        assert store.origins() == [IA(71, 1), IA(71, 2)]

    def test_beacons_from_unknown_origin_empty(self):
        assert BeaconStore().beacons_from(IA(71, 42)) == []


EXPIRY = TS + 24 * 3600  # hop fields default to a 24 h lifetime


class TestExpiryPurge:
    def test_purge_expired_drops_and_counts(self):
        store = BeaconStore()
        store.insert(make_beacon(1, [(1, 0, 5), (2, 3, 0)]))
        store.insert(make_beacon(2, [(2, 0, 5), (9, 3, 0)]))
        assert store.purge_expired(EXPIRY - 1) == 0
        assert store.purge_expired(EXPIRY + 1) == 2
        assert store.all_beacons() == []
        assert store.origins() == []
        assert store.stats.purged_expired == 2

    def test_select_purges_when_given_a_clock(self):
        store = BeaconStore()
        store.insert(make_beacon(1, [(1, 0, 5), (2, 3, 0)]))
        assert store.select_all(k_per_origin=5, now=EXPIRY - 1)
        assert store.select_all(k_per_origin=5, now=EXPIRY + 1) == []
        assert store.stats.purged_expired == 1

    def test_expires_at_is_min_hop_expiry(self):
        beacon = make_beacon(1, [(1, 0, 5), (2, 3, 0)])
        assert beacon.expires_at() == float(
            min(entry.hop.expiry for entry in beacon.entries)
        )


class TestSnapshotRestore:
    def test_roundtrip_preserves_beacons(self):
        store = BeaconStore()
        b1 = make_beacon(1, [(1, 0, 5), (2, 3, 0)])
        b2 = make_beacon(2, [(2, 0, 5), (9, 3, 0)])
        store.insert(b1)
        store.insert(b2)
        snapshot = store.snapshot()
        store.clear()
        assert store.all_beacons() == []
        store.restore(snapshot)
        assert sorted(
            b.interface_fingerprint() for b in store.all_beacons()
        ) == sorted(b.interface_fingerprint() for b in (b1, b2))

    def test_snapshot_is_isolated_from_later_inserts(self):
        store = BeaconStore()
        store.insert(make_beacon(1, [(1, 0, 5), (2, 3, 0)]))
        snapshot = store.snapshot()
        store.insert(make_beacon(2, [(2, 0, 5), (9, 3, 0)]))
        store.restore(snapshot)
        assert store.origins() == [IA(71, 1)]


class TestSegmentRegistryLifecycle:
    def _registry(self):
        from repro.scion.control.path_server import SegmentRegistry

        return SegmentRegistry()

    def test_register_rejects_expired_segment(self):
        registry = self._registry()
        segment = make_beacon(1, [(1, 0, 5), (2, 3, 0)])
        version = registry.version
        registry.register_down(segment, now=EXPIRY + 1)
        assert registry.down_segments(segment.terminal_ia) == []
        assert registry.version == version  # rejected: no mutation
        assert registry.stats.purged_expired == 1

    def test_purge_expired_bumps_version(self):
        registry = self._registry()
        segment = make_beacon(1, [(1, 0, 5), (2, 3, 0)])
        registry.register_down(segment)
        version = registry.version
        assert registry.purge_expired(EXPIRY - 1) == 0
        assert registry.version == version
        assert registry.purge_expired(EXPIRY + 1) == 1
        assert registry.version > version
        assert registry.down_segments(segment.terminal_ia) == []

    def test_snapshot_restore_roundtrip(self):
        registry = self._registry()
        down = make_beacon(1, [(1, 0, 5), (2, 3, 0)])
        core = make_beacon(3, [(3, 0, 5), (4, 3, 0)])
        registry.register_down(down)
        registry.register_core(core)
        snapshot = registry.snapshot()
        version = registry.version
        registry.clear()
        assert registry.version > version
        assert registry.down_segments(down.terminal_ia) == []
        registry.restore(snapshot)
        assert len(registry.down_segments(down.terminal_ia)) == 1
        assert len(registry.core_segments()) == 1
