"""Property-based tests on path policies."""

from hypothesis import given, settings, strategies as st

from repro.endhost.policy import (
    GeofencePolicy,
    LowestLatencyPolicy,
    PreferencePolicy,
    ShortestPolicy,
)
from repro.scion.addr import IA
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.path import (
    DataplanePath,
    HopField,
    InfoField,
    PathMeta,
    PathSegmentHops,
)

KEY = SymmetricKey(b"p" * 32)


@st.composite
def path_meta(draw):
    """A synthetic PathMeta over a random AS sequence."""
    length = draw(st.integers(1, 5))
    asns = draw(
        st.lists(st.integers(1, 50), min_size=length, max_size=length,
                 unique=True)
    )
    hops = []
    for index, asn in enumerate(asns):
        hops.append(
            HopField.create(
                IA(71, asn), KEY, 1000,
                cons_ingress=0 if index == 0 else index,
                cons_egress=0 if index == len(asns) - 1 else index + 1,
                beta=index,
            )
        )
    path = DataplanePath(
        (PathSegmentHops(InfoField(1000, 0, True), tuple(hops)),)
    )
    return PathMeta(
        path=path,
        latency_estimate_s=draw(st.floats(0.001, 0.5)),
        carbon_gco2_per_gb=draw(st.floats(0.0, 100.0)),
    )


metas = st.lists(path_meta(), min_size=0, max_size=8)


@given(metas)
@settings(max_examples=50, deadline=None)
def test_policies_return_subsets_in_order(paths):
    for policy in (ShortestPolicy(), LowestLatencyPolicy(),
                   PreferencePolicy("carbon")):
        ordered = policy.order(paths)
        # A pure ordering policy is a permutation; no invention, no loss.
        assert sorted(p.fingerprint for p in ordered) == sorted(
            p.fingerprint for p in paths
        )


@given(metas)
@settings(max_examples=50, deadline=None)
def test_policy_ordering_is_idempotent(paths):
    for policy in (ShortestPolicy(), LowestLatencyPolicy(),
                   PreferencePolicy("carbon")):
        once = policy.order(paths)
        twice = policy.order(once)
        assert [p.fingerprint for p in once] == [p.fingerprint for p in twice]


@given(metas, st.sets(st.integers(1, 50), max_size=5))
@settings(max_examples=50, deadline=None)
def test_geofence_filters_exactly_forbidden(paths, forbidden_asns):
    forbidden = {IA(71, asn) for asn in forbidden_asns}
    policy = GeofencePolicy(forbidden_ases=forbidden)
    allowed = policy.order(paths)
    for meta in paths:
        touches = any(ia in forbidden for ia in meta.as_sequence)
        assert (meta in allowed) == (not touches)
