"""Differential tests: the memoising combinator vs. the slow reference.

``combine_paths`` composes paths from per-segment views memoised on frozen
beacons and segments, builds only the core joints a lookup asks for, and
is fed by the registry's origin/terminal index.  ``reference_combinator``
is the combinator as it stood before any of that.  Both must return *equal
paths in the same order* — path order out of ``ScionNetwork.paths()`` is
part of every pinned seeded digest — on the SCIERA (Figure 1) world, on
seeded random topologies, with and without peering, with ``max_paths``,
for core endpoints, and across revoke / quarantine expiry / restore.

The second half pins the memoisation contract: a memoised ``Beacon`` /
``PathSegmentHops`` / ``DataplanePath`` is indistinguishable from a freshly
constructed one, and extending a beacon starts from a cold memo.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sciera import build_sciera
from repro.scion.control.combinator import combine_paths
from repro.scion.control.segments import ASEntry, Beacon
from repro.scion.network import ScionNetwork
from repro.scion.path import DataplanePath, HopField, InfoField, PathSegmentHops
from repro.scion.revocation import Revocation
from repro.scion.topology import random_topology
from tests.conftest import make_peering_topology, make_shortcut_topology
from tests.scion import reference_combinator

_NETWORKS = {}


def _network(kind: str, seed: int = 0) -> ScionNetwork:
    """Networks are built once per module: hypothesis only picks among them."""
    key = (kind, seed)
    if key not in _NETWORKS:
        if kind == "sciera":
            net = build_sciera(
                seed=1, verify_beacons=False, with_hosts=False
            ).network
        elif kind == "peering":
            net = ScionNetwork(make_peering_topology(), seed=7)
        elif kind == "shortcut":
            net = ScionNetwork(make_shortcut_topology(), seed=7)
        else:
            net = ScionNetwork(
                random_topology(int(kind), seed=seed), seed=1,
                verify_beacons=False,
            )
        _NETWORKS[key] = net
    return _NETWORKS[key]


def _combine_both(net, src, dst, now=None, **options):
    ups, cores, downs, _ = net.services[src].path_server.segments_for(dst, now=now)
    src_core = net.topology.get(src).is_core
    dst_core = net.topology.get(dst).is_core
    kwargs = dict(
        up_segments=[] if src_core else ups,
        core_segments=cores,
        down_segments=[] if dst_core else downs,
        src_is_core=src_core,
        dst_is_core=dst_core,
        **options,
    )
    return (
        combine_paths(src, dst, **kwargs),
        reference_combinator.combine_paths(src, dst, **kwargs),
    )


def _assert_same(net, src, dst, now=None, **options):
    new, ref = _combine_both(net, src, dst, now=now, **options)
    assert [p.fingerprint() for p in new] == [p.fingerprint() for p in ref]
    # Field equality: the same hop fields survived de-duplication, too.
    assert new == ref
    return new


class TestSameAsReference:
    def test_every_sciera_pair(self):
        # SCIERA has no peering links; the peering and rand64 cases below
        # are where ``include_peering`` makes a difference.
        net = _network("sciera")
        assert sum(
            len(_assert_same(net, src, dst)) for src, dst in net.all_as_pairs()
        ) > 0

    @pytest.mark.parametrize("kind", ["peering", "shortcut"])
    def test_every_pair_of_the_peering_and_shortcut_topologies(self, kind):
        net = _network(kind)
        for src, dst in net.all_as_pairs():
            for include_peering in (True, False):
                assert _assert_same(
                    net, src, dst, include_peering=include_peering
                )

    def test_every_pair_of_a_random_16(self):
        net = _network("16", seed=3)
        for src, dst in net.all_as_pairs():
            _assert_same(net, src, dst)

    @given(
        n_ases=st.sampled_from(["16", "64"]),
        seed=st.integers(0, 2),
        pick=st.integers(0, 10**6),
        include_peering=st.booleans(),
        max_paths=st.one_of(st.none(), st.integers(0, 12)),
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_topologies(self, n_ases, seed, pick, include_peering, max_paths):
        net = _network(n_ases, seed)
        pairs = net.all_as_pairs()
        src, dst = pairs[pick % len(pairs)]
        new = _assert_same(
            net, src, dst, include_peering=include_peering, max_paths=max_paths
        )
        if max_paths is not None:
            assert len(new) <= max_paths

    def test_paths_memo_matches_the_reference(self):
        """Cold, then memoised, ``ScionNetwork.paths()`` — same answer."""
        net = _network("sciera")
        for src, dst in net.all_as_pairs()[::9]:
            _, ref = _combine_both(net, src, dst)
            want = [p.fingerprint() for p in ref]
            net.flush_path_cache()
            assert [m.fingerprint for m in net.paths(src, dst)] == want
            assert [m.fingerprint for m in net.paths(src, dst)] == want
            assert [m.fingerprint for m in net.paths(src, dst, max_paths=3)] == want[:3]

    @pytest.mark.parametrize("kind,seed", [("sciera", 0), ("16", 1)])
    def test_across_revoke_expiry_and_restore(self, kind, seed):
        net = _network(kind, seed)
        pairs = net.all_as_pairs()[::5]
        now = float(net.timestamp)
        snapshot = net.registry.snapshot()
        before = [len(_assert_same(net, s, d)) for s, d in pairs]

        # Revoke a core AS interface: quarantines segments in both
        # registry tables and in every local up-segment store.
        core = net.topology.core_ases()[0]
        ifid = min(net.topology.get(core).interfaces)
        revocation = Revocation(
            ia=core, ifid=ifid, issued_at=now, ttl_s=5.0
        ).signed_by(net.signing_keys[core])
        assert net.services[core].path_server.revoke(revocation, now=now) > 0
        during = [len(_assert_same(net, s, d, now=now + 1.0)) for s, d in pairs]
        assert sum(during) < sum(before)

        # Quarantine expiry: the purge bumps the version, segments return.
        after = [len(_assert_same(net, s, d, now=now + 6.0)) for s, d in pairs]
        assert after == before

        # Warm restart from the pre-revocation snapshot.
        net.registry.clear()
        assert all(
            _assert_same(net, s, d) == []
            for s, d in pairs
            if not net.topology.get(d).is_core
        )
        net.registry.restore(snapshot)
        assert [len(_assert_same(net, s, d)) for s, d in pairs] == before


# -- memoised objects are indistinguishable from fresh ones ---------------------------


def _fresh_hop(hop: HopField) -> HopField:
    return HopField(hop.ia, hop.cons_ingress, hop.cons_egress, hop.expiry,
                    hop.beta, hop.mac)


def _fresh_path(path: DataplanePath) -> DataplanePath:
    return DataplanePath(tuple(
        PathSegmentHops(
            InfoField(seg.info.timestamp, seg.info.seg_id, seg.info.cons_dir),
            tuple(_fresh_hop(hop) for hop in seg.hops),
        )
        for seg in path.segments
    ))


_PATH_VIEWS = (
    "forwarding_plan", "interface_ids", "fingerprint", "as_sequence", "hops",
    "num_as_hops", "min_expiry",
)


class TestMemoisedEqualsFresh:
    @given(kind=st.sampled_from(["sciera", "peering", "shortcut", "16"]),
           pick=st.integers(0, 10**6), warm_first=st.booleans())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_paths_and_segments(self, kind, pick, warm_first):
        net = _network(kind)
        pairs = net.all_as_pairs()
        src, dst = pairs[pick % len(pairs)]
        for meta in net.paths(src, dst):
            path = meta.path
            if warm_first:
                for view in _PATH_VIEWS:
                    getattr(path, view)()
            fresh = _fresh_path(path)
            assert "_forwarding_plan" not in fresh.__dict__
            assert path == fresh and hash(path) == hash(fresh)
            assert (path.src_ia, path.dst_ia) == (fresh.src_ia, fresh.dst_ia)
            for view in _PATH_VIEWS:
                assert getattr(path, view)() == getattr(fresh, view)()
            for index, (seg, fresh_seg) in enumerate(
                zip(path.segments, fresh.segments)
            ):
                assert seg == fresh_seg and hash(seg) == hash(fresh_seg)
                assert seg.forwarding_hops() == fresh_seg.forwarding_hops()
                assert seg.records(index) == fresh_seg.records(index)
                assert seg.interface_ids() == fresh_seg.interface_ids()
                assert seg.as_sequence() == fresh_seg.as_sequence()
            assert (
                net.dataplane.path_latency_s(path)
                == net.dataplane.path_latency_s(fresh)
                == meta.latency_estimate_s
            )

    def test_a_plan_places_shared_records_at_the_right_segment_index(self):
        net = _network("sciera")
        seen = set()
        for src, dst in net.all_as_pairs()[::7]:
            for meta in net.paths(src, dst):
                records = meta.path.forwarding_plan()
                seen.update(record.seg_index for record in records)
                position = 0
                for index, seg in enumerate(meta.path.segments):
                    chunk = records[position:position + len(seg.hops)]
                    position += len(seg.hops)
                    assert {r.seg_index for r in chunk} == {index}
                    assert chunk[0].is_seg_first and chunk[-1].is_seg_last
                assert position == len(records)
        assert seen == {0, 1, 2}

    def test_beacon_views_are_shared_and_equal_fresh_ones(self):
        net = _network("peering")
        for service in net.services.values():
            for beacon in service.path_server.up_segments:
                fresh = Beacon(beacon.timestamp, beacon.seg_id, beacon.entries)
                assert beacon == fresh and hash(beacon) == hash(fresh)
                assert beacon.interface_fingerprint() == fresh.interface_fingerprint()
                for cons_dir in (True, False):
                    for index in range(len(beacon.entries)):
                        view = beacon.to_hops(cons_dir, index)
                        assert view is beacon.to_hops(cons_dir, index)
                        assert view == fresh.to_hops(cons_dir, index)
                        assert view == reference_combinator._seg_hops(
                            beacon, cons_dir, from_index=index
                        )
                        peer = _fresh_hop(beacon.entries[index].hop)
                        spliced = beacon.to_hops(cons_dir, index, peer)
                        assert spliced is beacon.to_hops(cons_dir, index, peer)
                        assert spliced == reference_combinator._seg_hops(
                            beacon, cons_dir, from_index=index, replace_first=peer
                        )

    def test_with_entry_starts_with_a_cold_memo(self):
        net = _network("shortcut")
        leaf = next(
            ia for ia, topo in sorted(net.topology.ases.items()) if not topo.is_core
        )
        beacon = net.services[leaf].path_server.up_segments[0]
        beacon.to_hops(True)
        beacon.interface_fingerprint()
        assert {"_views", "_fp"} <= set(beacon.__dict__)
        last = beacon.entries[-1]
        extended = beacon.with_entry(
            ASEntry(ia=last.ia, hop=last.hop), net.signing_keys[leaf]
        )
        assert not {"_views", "_fp"} & set(extended.__dict__)
        assert len(extended.to_hops(True).hops) == len(beacon.to_hops(True).hops) + 1
        assert extended.interface_fingerprint() != beacon.interface_fingerprint()
