"""Tests for the geographic latency model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.netsim.geo import (
    FIBER_SPEED_KM_S,
    GeoPoint,
    city,
    haversine_km,
    propagation_delay_s,
)


def test_zero_distance_same_point():
    p = GeoPoint(47.37, 8.54)
    assert haversine_km(p, p) == pytest.approx(0.0)


def test_known_distance_zurich_singapore():
    # Great-circle Zurich-Singapore is roughly 10,300 km.
    d = haversine_km(city("zurich"), city("singapore"))
    assert 10_000 < d < 10_600


def test_transatlantic_delay_plausible():
    # Amsterdam <-> Ashburn one-way: tens of milliseconds.
    delay = propagation_delay_s(city("amsterdam"), city("ashburn"))
    assert 0.025 < delay < 0.075


def test_min_delay_floor():
    p = city("amsterdam")
    assert propagation_delay_s(p, p) == pytest.approx(0.0002)


def test_route_factor_below_one_rejected():
    with pytest.raises(ValueError):
        propagation_delay_s(city("paris"), city("london"), route_factor=0.5)


def test_unknown_city_raises_with_hint():
    with pytest.raises(KeyError, match="known cities"):
        city("atlantis")


def test_all_paper_cities_present():
    # Every PoP city from Table 1 of the paper must resolve.
    for name in (
        "amsterdam", "ashburn", "chicago", "daejeon", "frankfurt", "geneva",
        "hong_kong", "jacksonville", "jeddah", "lisbon", "london", "madrid",
        "mclean", "paris", "seattle", "singapore",
    ):
        assert city(name) is not None


@given(
    lat1=st.floats(-90, 90), lon1=st.floats(-180, 180),
    lat2=st.floats(-90, 90), lon2=st.floats(-180, 180),
)
def test_haversine_is_symmetric_and_bounded(lat1, lon1, lat2, lon2):
    a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
    d_ab = haversine_km(a, b)
    d_ba = haversine_km(b, a)
    assert d_ab == pytest.approx(d_ba, abs=1e-6)
    # No two points on Earth are farther apart than half the circumference.
    assert 0 <= d_ab <= math.pi * 6371.0 + 1e-6


@given(
    lat1=st.floats(-90, 90), lon1=st.floats(-180, 180),
    lat2=st.floats(-90, 90), lon2=st.floats(-180, 180),
)
def test_delay_at_least_speed_of_light_in_fiber(lat1, lon1, lat2, lon2):
    a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
    delay = propagation_delay_s(a, b, route_factor=1.0)
    assert delay >= haversine_km(a, b) / FIBER_SPEED_KM_S - 1e-12
