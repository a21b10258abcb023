"""Stateful check of ``SegmentRegistry``'s origin/terminal core index.

``core_segments(origin=…, terminal=…)`` answers from an index of the core
table instead of sorting and scanning it per call.  A hypothesis state
machine drives every mutation the registry has — register_core /
register_down / revoke / purge_expired / snapshot + restore / clear — and
after each step compares every (origin, terminal) query with a brute-force
scan of the tables in the documented order: keys sorted by
``(str(origin), str(terminal))``, bucket insertion order within a key,
quarantined segments filtered out.  It also pins that ``version`` bumps on
every mutation, which the versioned caches stacked on the registry rely on.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.scion.addr import IA
from repro.scion.control.path_server import SegmentRegistry
from repro.scion.control.segments import ASEntry, Beacon
from repro.scion.path import HopField
from repro.scion.revocation import Revocation

CORES = [IA(71, n) for n in (1, 2, 3)] + [IA(64, 1)]
LEAVES = [IA(71, 100), IA(71, 200)]
T0 = 1_000


def _beacon(ases, variant: int, lifetime: int) -> Beacon:
    """An unsigned synthetic segment over ``ases`` (the registry never
    verifies); ``variant`` picks the interfaces, so it is the fingerprint."""
    last = len(ases) - 1
    return Beacon(T0 + variant, variant, tuple(
        ASEntry(ia, HopField(
            ia,
            cons_ingress=0 if pos == 0 else 10 + variant,
            cons_egress=0 if pos == last else 20 + variant,
            expiry=T0 + lifetime, beta=variant, mac=b"\0" * 6,
        ))
        for pos, ia in enumerate(ases)
    ))


core_beacons = st.builds(
    lambda pair, variant, lifetime: _beacon(pair, variant, lifetime),
    st.permutations(CORES).map(lambda cores: cores[:2]),
    st.integers(0, 2), st.sampled_from([5, 500]),
)
down_beacons = st.builds(
    lambda core, leaf, variant, lifetime: _beacon([core, leaf], variant, lifetime),
    st.sampled_from(CORES), st.sampled_from(LEAVES),
    st.integers(0, 2), st.sampled_from([5, 500]),
)


def _brute_core(registry, origin, terminal):
    out = []
    for (seg_origin, seg_terminal), bucket in sorted(
        registry._core.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
    ):
        if origin is not None and seg_origin != origin:
            continue
        if terminal is not None and seg_terminal != terminal:
            continue
        out.extend(seg for seg in bucket.values() if not registry.is_revoked(seg))
    return out


class RegistryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.registry = SegmentRegistry()
        self.now = float(T0)
        self.saved = None

    def _mutates(self, action):
        before = self.registry.version
        result = action()
        assert self.registry.version > before
        return result

    @rule(beacon=core_beacons, timed=st.booleans())
    def register_core(self, beacon, timed):
        now = self.now if timed else None
        if timed and beacon.expires_at() <= self.now:
            before = self.registry.version
            self.registry.register_core(beacon, now=now)
            assert self.registry.version == before  # refused: already dead
        else:
            self._mutates(lambda: self.registry.register_core(beacon, now=now))

    @rule(beacon=down_beacons)
    def register_down(self, beacon):
        self._mutates(lambda: self.registry.register_down(beacon))

    @rule(ia=st.sampled_from(CORES), ifid=st.sampled_from([10, 11, 12, 20, 21, 22]),
          ttl=st.sampled_from([5.0, 100.0]))
    def revoke(self, ia, ifid, ttl):
        revocation = Revocation(ia=ia, ifid=ifid, issued_at=self.now, ttl_s=ttl)
        if self.registry.covers(revocation):
            before = self.registry.version
            assert self.registry.revoke(revocation) == 0
            assert self.registry.version == before
        else:
            self._mutates(lambda: self.registry.revoke(revocation))

    @rule(step=st.sampled_from([1.0, 3.0, 10.0]))
    def purge_expired(self, step):
        self.now += step
        before = self.registry.version
        revocations = len(self.registry.active_revocations())
        purged = self.registry.purge_expired(self.now)
        lifted = revocations - len(self.registry.active_revocations())
        assert (self.registry.version > before) == bool(purged or lifted)

    @rule()
    def snapshot(self):
        self.saved = self.registry.snapshot()

    @precondition(lambda self: self.saved is not None)
    @rule()
    def restore(self):
        self._mutates(lambda: self.registry.restore(self.saved))

    @rule()
    def clear(self):
        self._mutates(self.registry.clear)

    @invariant()
    def index_matches_a_brute_force_scan(self):
        for origin in [None] + CORES:
            for terminal in [None] + CORES:
                assert self.registry.core_segments(
                    origin=origin, terminal=terminal
                ) == _brute_core(self.registry, origin, terminal)


RegistryMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestRegistryIndex = RegistryMachine.TestCase


def test_index_follows_every_way_the_key_set_changes():
    """The deterministic walk: each mutation lands *after* a lookup built
    the index, so a missed invalidation shows as a stale or crashing answer."""
    registry = SegmentRegistry()
    a, b, c = CORES[:3]
    ab, ba, ac = _beacon([a, b], 0, 5), _beacon([b, a], 1, 500), _beacon([a, c], 2, 500)

    def check():
        for origin in (None, a, b, c):
            for terminal in (None, a, b, c):
                assert registry.core_segments(origin, terminal) == _brute_core(
                    registry, origin, terminal
                )

    registry.register_core(ab)
    check()
    registry.register_core(ba)          # a new key after the index was built
    check()
    assert registry.core_segments(origin=b) == [ba]
    saved = registry.snapshot()
    registry.register_core(ac)
    assert registry.core_segments(origin=a) == [ab, ac]
    assert registry.purge_expired(T0 + 10.0) == 1   # empties the (a, b) bucket
    check()
    assert registry.core_segments(origin=a) == [ac]
    registry.restore(saved)             # (a, b) back, (a, c) gone
    check()
    assert registry.core_segments(origin=a) == [ab]
    registry.clear()
    check()
    assert registry.core_segments() == []
