"""Beacon fingerprint memoization: cached == recomputed, always.

The fingerprint is the identity key for beacon stores, propagation dedup,
and path-server registries, so the memo must be byte-identical to the
uncached computation for every beacon a real network mints — and a
beacon extended by one signed entry must get a fresh value, not its
parent's cache.
"""

from repro.harness.crucible import TOPOLOGIES
from repro.scion.network import ScionNetwork


def _network():
    return ScionNetwork(TOPOLOGIES["mesh5"](0), seed=42)


def _all_stored_beacons(network):
    beaconing = network.beaconing
    for store in list(beaconing.core_stores.values()) + list(
        beaconing.down_stores.values()
    ):
        yield from store.all_beacons()


class TestFingerprintMemo:
    def test_seeded_digests_byte_identical_to_uncached(self):
        network = _network()
        checked = 0
        for beacon in _all_stored_beacons(network):
            cached = beacon.interface_fingerprint()
            assert cached == beacon._build_interface_fingerprint()
            # Second call returns the exact cached object.
            assert beacon.interface_fingerprint() is cached
            checked += 1
        assert checked > 0

    def test_extension_does_not_inherit_parent_cache(self):
        network = _network()
        engine = network.beaconing
        beacon = next(iter(_all_stored_beacons(network)))
        parent_fp = beacon.interface_fingerprint()  # warm the cache
        terminal_ia = beacon.terminal_ia
        entry = engine._make_entry(
            terminal_ia, beacon.entries[-1].hop.cons_ingress, 7,
            beacon.next_beta(),
        )
        extended = type(beacon)(
            beacon.timestamp, beacon.seg_id, beacon.entries + (entry,)
        ).sign_last(engine.signing_keys[terminal_ia])
        assert extended.interface_fingerprint() != parent_fp
        assert (extended.interface_fingerprint()
                == extended._build_interface_fingerprint())

    def test_equal_beacons_share_the_fingerprint_value(self):
        """The memo lives per instance; equality still implies equal
        fingerprints (digest depends only on frozen fields)."""
        network = _network()
        for beacon in _all_stored_beacons(network):
            clone = type(beacon)(
                beacon.timestamp, beacon.seg_id, beacon.entries
            )
            assert clone is not beacon
            assert clone.interface_fingerprint() == beacon.interface_fingerprint()
