"""Geographic latency model.

SCIERA's RTT structure comes from geography: which PoPs peer where, and how
long light takes through fiber between them. We model one-way propagation
delay as great-circle distance divided by the effective speed of light in
fiber (~2/3 c), multiplied by a route-indirectness factor that accounts for
real fiber paths not following great circles (submarine cable landing
points, terrestrial backhaul).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Speed of light in vacuum, km/s.
SPEED_OF_LIGHT_KM_S = 299_792.458

#: Effective propagation speed in optical fiber (refractive index ~1.47).
FIBER_SPEED_KM_S = SPEED_OF_LIGHT_KM_S / 1.47

#: Default multiplier for fiber-route indirectness over the great circle.
DEFAULT_ROUTE_FACTOR = 1.6

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class GeoPoint:
    """A point on Earth, degrees latitude/longitude."""

    lat: float
    lon: float


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometers."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def propagation_delay_s(
    a: GeoPoint,
    b: GeoPoint,
    route_factor: float = DEFAULT_ROUTE_FACTOR,
    min_delay_s: float = 0.0002,
) -> float:
    """One-way propagation delay between two points, in seconds.

    ``min_delay_s`` floors the delay for co-located endpoints (same metro,
    cross-connects inside a data center still take ~0.2 ms through gear).
    """
    if route_factor < 1.0:
        raise ValueError(f"route_factor must be >= 1.0, got {route_factor}")
    dist = haversine_km(a, b) * route_factor
    return max(min_delay_s, dist / FIBER_SPEED_KM_S)


# Coordinates for every city hosting a SCIERA PoP or participant (Table 1 and
# Figure 1 of the paper), plus cities needed for the IP baseline.
CITY_COORDS = {
    "amsterdam": GeoPoint(52.37, 4.90),
    "ashburn": GeoPoint(39.04, -77.49),
    "athens": GeoPoint(37.98, 23.73),
    "campo_grande": GeoPoint(-20.44, -54.65),  # UFMS
    "chicago": GeoPoint(41.88, -87.63),
    "daejeon": GeoPoint(36.35, 127.38),
    "frankfurt": GeoPoint(50.11, 8.68),
    "geneva": GeoPoint(46.20, 6.14),
    "hong_kong": GeoPoint(22.32, 114.17),
    "jacksonville": GeoPoint(30.33, -81.66),
    "jeddah": GeoPoint(21.49, 39.19),  # KAUST
    "lisbon": GeoPoint(38.72, -9.14),
    "london": GeoPoint(51.51, -0.13),
    "madrid": GeoPoint(40.42, -3.70),
    "magdeburg": GeoPoint(52.13, 11.63),  # OVGU
    "mclean": GeoPoint(38.93, -77.18),
    "paris": GeoPoint(48.86, 2.35),
    "princeton": GeoPoint(40.35, -74.66),
    "rio_de_janeiro": GeoPoint(-22.91, -43.17),  # RNP
    "seattle": GeoPoint(47.61, -122.33),
    "seoul": GeoPoint(37.57, 126.98),  # Korea University
    "singapore": GeoPoint(1.35, 103.82),
    "tallinn": GeoPoint(59.44, 24.75),  # CybExer / CCDCoE
    "charlottesville": GeoPoint(38.03, -78.48),  # UVa
    "zurich": GeoPoint(47.37, 8.54),  # ETH / SWITCH
    "accra": GeoPoint(5.60, -0.19),  # WACREN region
    "sao_paulo": GeoPoint(-23.55, -46.63),
}


def city(name: str) -> GeoPoint:
    """Look up a known city, raising a helpful error for typos."""
    try:
        return CITY_COORDS[name]
    except KeyError:
        raise KeyError(
            f"unknown city {name!r}; known cities: {sorted(CITY_COORDS)}"
        ) from None
