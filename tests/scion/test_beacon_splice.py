"""Splicing attacks against a *warm* verify memo, and the beacon store's
selection against a brute-force scorer.

``rsa.verify`` remembers ``signature ** e mod n`` and nothing else.  The
first half re-uses validly signed entries where they were not signed —
under another (itself validly signed) prefix, another ``timestamp`` or
``seg_id``, another AS's name — *after* the genuine beacons have been
verified, and requires the rejection a cold verifier gives, reached without
one new exponentiation.  A memo that remembered a verdict per entry would
accept the first of these.

The second half keeps ``BeaconStore.select`` as it stood before it computed
each candidate's interface set once per call, and requires the same beacons
in the same order.
"""

import dataclasses
from typing import List, Set

import pytest

from repro.scion.control.beaconing import BeaconStore
from repro.scion.control.segments import Beacon, BeaconError
from repro.scion.crypto import rsa
from repro.scion.network import ScionNetwork
from repro.scion.topology import random_topology


@pytest.fixture(scope="module")
def resolver(sciera_world):
    net = sciera_world.network
    return Beacon.make_validating_key_resolver(
        net.cert_chain, net.trc_for, net.timestamp
    )


@pytest.fixture(scope="module")
def siblings(sciera_world, resolver):
    """Two stored beacons of one origin and length with different prefixes,
    with their terminal entries signed as at registration."""
    engine = sciera_world.network.beaconing
    for store in engine.down_stores.values():
        for origin in store.origins():
            beacons = [b for b in store.beacons_from(origin) if len(b) >= 3]
            for a in beacons:
                for b in beacons:
                    if len(a) == len(b) and a.entries[:-1] != b.entries[:-1]:
                        return engine.terminate(a), engine.terminate(b)
    raise AssertionError("no sibling beacons in the SCIERA stores")


def _assert_rejected_from_warm_memo(beacon, resolver, index, genuine):
    for verified in genuine:  # every signature below is now in the memo
        verified.verify(resolver)
    before = rsa._public_op.cache_info()
    with pytest.raises(
        BeaconError,
        match=f"bad signature from {beacon.entries[index].ia} at index {index}",
    ):
        beacon.verify(resolver)
    after = rsa._public_op.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + index + 1


class TestSpliceAgainstWarmMemo:
    def test_entry_reused_under_another_valid_prefix(self, siblings, resolver):
        a, b = siblings
        spliced = Beacon(b.timestamp, b.seg_id, b.entries[:-1] + a.entries[-1:])
        _assert_rejected_from_warm_memo(
            spliced, resolver, len(spliced) - 1, siblings
        )

    def test_entries_reused_under_another_timestamp(self, siblings, resolver):
        a, _ = siblings
        replayed = dataclasses.replace(a, timestamp=a.timestamp + 1)
        _assert_rejected_from_warm_memo(replayed, resolver, 0, siblings)

    def test_entries_reused_under_another_seg_id(self, siblings, resolver):
        a, _ = siblings
        moved = dataclasses.replace(a, seg_id=a.seg_id ^ 1)
        _assert_rejected_from_warm_memo(moved, resolver, 0, siblings)

    def test_entry_appended_under_another_as_name(self, siblings, resolver):
        a, b = siblings
        impostor = next(
            e.ia for e in b.entries[:-1] if e.ia != a.entries[-2].ia
        )
        # The impostor's key has not seen this signature: a memo miss
        # (another modulus) or a hit, and a rejection either way.
        for verified in siblings:
            verified.verify(resolver)
        relabelled = dataclasses.replace(a.entries[-2], ia=impostor)
        forged = Beacon(
            a.timestamp, a.seg_id,
            a.entries[:-2] + (relabelled,) + a.entries[-1:],
        )
        with pytest.raises(BeaconError, match=f"bad signature from {impostor}"):
            forged.verify(resolver)


def reference_select(store: BeaconStore, origin, k: int, max_detour=2) -> List[Beacon]:
    """``BeaconStore.select`` with every interface set rebuilt per score."""
    candidates = sorted(
        store._by_origin.get(origin, {}).values(),
        key=lambda b: (len(b), b.interface_fingerprint()),
    )
    if candidates and max_detour is not None:
        shortest = len(candidates[0])
        candidates = [b for b in candidates if len(b) <= shortest + max_detour]
    if len(candidates) <= k:
        return candidates
    chosen: List[Beacon] = []
    covered: Set[str] = set()
    remaining = candidates[:]
    while remaining and len(chosen) < k:
        def score(beacon: Beacon):
            ifaces = {
                f"{e.ia}#{e.hop.cons_ingress}" for e in beacon.entries
            } | {f"{e.ia}#{e.hop.cons_egress}" for e in beacon.entries}
            new = len(ifaces - covered)
            return (-new, len(beacon), beacon.interface_fingerprint())

        best = min(remaining, key=score)
        remaining.remove(best)
        chosen.append(best)
        for entry in best.entries:
            covered.add(f"{entry.ia}#{entry.hop.cons_ingress}")
            covered.add(f"{entry.ia}#{entry.hop.cons_egress}")
    return chosen


class TestSelectDifferential:
    def _assert_same_choice(self, network: ScionNetwork):
        greedy_rounds = 0
        engine = network.beaconing
        for stores in (engine.core_stores, engine.down_stores):
            for store in stores.values():
                for origin in store.origins():
                    for k in (1, 3, 6):
                        for max_detour in (2, None):
                            got = store.select(origin, k, max_detour)
                            want = reference_select(store, origin, k, max_detour)
                            assert [id(b) for b in got] == [id(b) for b in want]
                            if len(store.beacons_from(origin)) > k:
                                greedy_rounds += 1
        assert greedy_rounds > 20  # the greedy loop, not just the short cut

    def test_sciera_stores(self, sciera_world):
        self._assert_same_choice(sciera_world.network)

    def test_random_topology_stores(self):
        self._assert_same_choice(
            ScionNetwork(random_topology(64, seed=5), seed=1)
        )
