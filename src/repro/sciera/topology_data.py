"""The SCIERA deployment topology (paper Figure 1, Table 1).

Every AS, link, and PoP of the deployment as of the paper's measurement
campaign, encoded declaratively. ``build_sciera_topology`` turns it into a
:class:`~repro.scion.topology.GlobalTopology`; ``build_ip_internet`` builds
the commercial-Internet baseline graph over the same sites.

Latencies derive from great-circle distances between the hosting cities
(see :mod:`repro.netsim.geo`). The commercial Internet graph is *denser*
than SCIERA's Layer-2 mesh — real transit providers sell direct routes the
academic deployment lacks — which is why the paper finds IP slightly ahead
at the median while SCION wins in the tail (Figure 5/6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.netsim.geo import city, propagation_delay_s
from repro.netsim.ip import IpInternet
from repro.scion.addr import IA
from repro.scion.topology import GlobalTopology, LinkType


@dataclass(frozen=True)
class Participant:
    """One SCIERA AS."""

    ia: str
    name: str
    region: str          # "EU" | "NA" | "ASIA" | "SA" | "AF" | "CH"
    city: str            # key into repro.netsim.geo.CITY_COORDS
    is_core: bool = False
    flavor: str = "open-source"   # or "anapaya"
    planned: bool = False         # "under construction" in Figure 1


#: Figure 1, AS by AS. ISD 71 is SCIERA; ISD 64 is the Swiss production ISD.
SCIERA_PARTICIPANTS: Tuple[Participant, ...] = (
    # --- cores -----------------------------------------------------------------
    Participant("71-20965", "GEANT", "EU", "geneva", is_core=True,
                flavor="anapaya"),
    Participant("71-2:0:35", "BRIDGES", "NA", "mclean", is_core=True),
    Participant("71-2:0:3b", "KISTI DJ", "ASIA", "daejeon", is_core=True,
                flavor="anapaya"),
    Participant("71-2:0:3c", "KISTI HK", "ASIA", "hong_kong", is_core=True,
                flavor="anapaya"),
    Participant("71-2:0:3d", "KISTI SG", "ASIA", "singapore", is_core=True,
                flavor="anapaya"),
    Participant("71-2:0:3e", "KISTI AMS", "EU", "amsterdam", is_core=True,
                flavor="anapaya"),
    Participant("71-2:0:3f", "KISTI CHG", "NA", "chicago", is_core=True,
                flavor="anapaya"),
    Participant("71-2:0:40", "KISTI STL", "NA", "seattle", is_core=True,
                flavor="anapaya"),
    # --- Europe ------------------------------------------------------------------
    Participant("71-559", "SWITCH", "EU", "zurich", flavor="anapaya"),
    Participant("71-1140", "SIDN Labs", "EU", "amsterdam"),
    Participant("71-2546", "Demokritos", "EU", "athens"),
    Participant("71-2:0:42", "OVGU", "EU", "magdeburg"),
    Participant("71-2:0:49", "CybExer", "EU", "tallinn"),
    Participant("71-203311", "CCDCoE", "EU", "tallinn"),
    # --- North America ------------------------------------------------------------
    Participant("71-225", "UVa", "NA", "charlottesville"),
    Participant("71-88", "Princeton", "NA", "princeton"),
    Participant("71-2:0:48", "Equinix", "NA", "ashburn"),
    Participant("71-398900", "FABRIC", "NA", "mclean"),
    Participant("71-2:0:4a", "MARIA", "NA", "ashburn"),
    # --- Asia -----------------------------------------------------------------------
    Participant("71-2:0:18", "SEC", "ASIA", "singapore"),
    Participant("71-2:0:61", "NUS", "ASIA", "singapore"),
    Participant("71-2:0:4d", "Korea University", "ASIA", "seoul"),
    Participant("71-4158", "CityU HK", "ASIA", "hong_kong"),
    Participant("71-50999", "KAUST", "ASIA", "jeddah"),
    # --- South America / Africa -------------------------------------------------------
    Participant("71-1916", "RNP", "SA", "rio_de_janeiro"),
    Participant("71-2:0:5c", "UFMS", "SA", "campo_grande"),
    Participant("71-10881", "UFPR", "SA", "sao_paulo", planned=True),
    Participant("71-37288", "WACREN", "AF", "london"),
    # --- ISD 64 (Swiss production ISD) ---------------------------------------------------
    Participant("64-559", "SWITCH (ISD64)", "CH", "zurich", is_core=True,
                flavor="anapaya"),
    Participant("64-2:0:9", "ETH Zurich", "CH", "zurich"),
)


@dataclass(frozen=True)
class DeclaredLink:
    """One Layer-2 link of Figure 1 (``a``'s perspective in ``a_type``)."""

    a: str
    b: str
    a_type: LinkType
    name: str
    #: PoP cities the VLAN lands at (documentation; latency uses the AS
    #: home cities, since each AS is modeled as one node and its internal
    #: backbone distance must be charged to its links).
    a_city: Optional[str] = None
    b_city: Optional[str] = None
    #: extra multiplier on the geo route factor (ring detours, submarine)
    stretch: float = 1.0


def _core(a: str, b: str, name: str, **kw) -> DeclaredLink:
    return DeclaredLink(a, b, LinkType.CORE, name, **kw)


def _child(child: str, parent: str, name: str, **kw) -> DeclaredLink:
    return DeclaredLink(child, parent, LinkType.PARENT, name, **kw)


#: Figure 1's solid lines. Names are stable ids used by failure schedules.
SCIERA_LINKS: Tuple[DeclaredLink, ...] = (
    # Transatlantic / inter-core backbone.
    _core("71-20965", "71-2:0:35", "geant-bridges"),
    _core("71-20965", "71-2:0:3e", "geant-kisti-ams", a_city="amsterdam"),
    _core("71-20965", "71-2:0:3d", "geant-kisti-sg", a_city="singapore"),
    _core("71-2:0:35", "71-2:0:3f", "bridges-kisti-chg"),
    _core("71-2:0:35", "71-2:0:40", "bridges-kisti-stl"),
    _core("71-20965", "64-559", "geant-switch-core"),
    # The KREONET ring around the Northern Hemisphere (Section 4.7.1):
    # Amsterdam - Chicago - Seattle - Daejeon - Hong Kong - Singapore - Amsterdam.
    _core("71-2:0:3e", "71-2:0:3f", "kreonet-ams-chg"),
    _core("71-2:0:3f", "71-2:0:40", "kreonet-chg-stl"),
    _core("71-2:0:40", "71-2:0:3b", "kreonet-stl-dj"),
    # The Korea - Hong Kong - Singapore corridor: KREONET provisions four
    # circuits per leg on this ring section (the submarine corridor
    # carries multiple wavelengths). All of them ride the same cable
    # system — which is why the August 2024 cut (Section 5.5) and the
    # in-campaign outage (Figure 9) take the whole east side down at once.
    _core("71-2:0:3b", "71-2:0:3c", "kreonet-dj-hk"),
    _core("71-2:0:3b", "71-2:0:3c", "kreonet-dj-hk-2", stretch=1.05),
    _core("71-2:0:3b", "71-2:0:3c", "kreonet-dj-hk-3", stretch=1.1),
    _core("71-2:0:3b", "71-2:0:3c", "kreonet-dj-hk-4", stretch=1.15),
    _core("71-2:0:3c", "71-2:0:3d", "kreonet-hk-sg"),
    _core("71-2:0:3c", "71-2:0:3d", "kreonet-hk-sg-2", stretch=1.05),
    _core("71-2:0:3c", "71-2:0:3d", "kreonet-hk-sg-3", stretch=1.1),
    _core("71-2:0:3c", "71-2:0:3d", "kreonet-hk-sg-4", stretch=1.15),
    _core("71-2:0:3d", "71-2:0:3e", "kreonet-sg-ams"),
    # Singapore-Amsterdam multipath: CAE-1 and KAUST I & II give four
    # distinct SG-AMS options in total (Section 3.2, Asia).
    _core("71-2:0:3d", "71-2:0:3e", "cae1-sg-ams", stretch=1.05),
    _core("71-2:0:3d", "71-2:0:3e", "kaust1-sg-ams", stretch=1.15),
    _core("71-2:0:3d", "71-2:0:3e", "kaust2-sg-ams", stretch=1.2),
    # Europe: GEANT's customers.
    _child("71-559", "71-20965", "switch-geant"),
    _child("71-1140", "71-20965", "sidn-geant", b_city="amsterdam"),
    _child("71-2546", "71-20965", "demokritos-geant"),
    _child("71-2:0:42", "71-20965", "ovgu-geant", b_city="frankfurt"),
    _child("71-2:0:49", "71-20965", "cybexer-geant", b_city="frankfurt"),
    _child("71-203311", "71-20965", "ccdcoe-geant", b_city="frankfurt"),
    # WACREN: two VLANs between GEANT and WACREN@London.
    _child("71-37288", "71-20965", "wacren-geant-1", b_city="london"),
    _child("71-37288", "71-20965", "wacren-geant-2", b_city="london"),
    # North America: BRIDGES' customers over Internet2 VLANs.
    _child("71-225", "71-2:0:35", "uva-bridges-1"),
    _child("71-225", "71-2:0:35", "uva-bridges-2"),
    _child("71-88", "71-2:0:35", "princeton-bridges"),
    _child("71-2:0:48", "71-2:0:35", "equinix-bridges"),
    # Equinix's ServiceFabric reaches GEANT's Frankfurt PoP as well
    # (Appendix D: SCION at 450+ Digital Realty/Equinix data centers), so
    # Equinix<->UVa has path diversity beyond the shared BRIDGES parent —
    # Figure 8 shows 46 paths between them.
    _child("71-2:0:48", "71-20965", "equinix-geant"),
    _child("71-398900", "71-2:0:35", "fabric-bridges"),
    _child("71-2:0:4a", "71-2:0:35", "maria-bridges"),
    _child("71-2:0:4a", "71-2:0:3f", "maria-kisti-chg"),
    # Asia: KREONET PoPs' customers.
    _child("71-2:0:18", "71-2:0:3d", "sec-kisti-sg"),      # VXLAN via SingAREN
    _child("71-2:0:61", "71-2:0:3d", "nus-kisti-sg"),
    _child("71-2:0:4d", "71-2:0:3b", "korea-kisti-dj"),
    _child("71-4158", "71-2:0:3c", "cityu-kisti-hk"),
    _child("71-50999", "71-2:0:3d", "kaust-kisti-sg"),
    _child("71-50999", "71-20965", "kaust-geant", b_city="frankfurt"),
    # South America: RNP dual-homed to GEANT (Lisbon/Madrid) and to
    # BRIDGES via Internet2 (Jacksonville/AtlanticWave).
    _child("71-1916", "71-20965", "rnp-geant-lisbon", b_city="lisbon"),
    _child("71-1916", "71-20965", "rnp-geant-madrid", b_city="madrid"),
    _child("71-1916", "71-2:0:35", "rnp-bridges", a_city="jacksonville"),
    # UFMS: two physical last-mile links into RNP's backbone.
    _child("71-2:0:5c", "71-1916", "ufms-rnp-1"),
    _child("71-2:0:5c", "71-1916", "ufms-rnp-2"),
    # UFPR is "under construction" in Figure 1 (included only when the
    # planned topology is requested).
    _child("71-10881", "71-1916", "ufpr-rnp"),
    # ISD 64: the Swiss production network behind SWITCH.
    _child("64-2:0:9", "64-559", "eth-switch"),
)

#: Table 1 of the paper: PoPs and collaborating networks.
SCIERA_POPS: Tuple[Tuple[str, str, str], ...] = (
    ("Amsterdam, NL", "GEANT/KREONET", "Netherlight"),
    ("Ashburn, US", "BRIDGES", "Internet2/MARIA"),
    ("Chicago, US", "KREONET", "Internet2/StarLight"),
    ("Daejeon, KR", "KREONET", "KISTI"),
    ("Frankfurt, DE", "GEANT", ""),
    ("Geneva, CH", "GEANT", "CERN/SWITCH"),
    ("Hong Kong, HK", "KREONET", "CSTNet/HARNET"),
    ("Jacksonville, US", "RNP", "Internet2/AtlanticWave"),
    ("Jeddah, SA", "GEANT/KREONET", "KAUST"),
    ("Lisbon, PT", "GEANT/RNP", "RedCLARA"),
    ("London, GB", "GEANT/WACREN", "AfricaConnect"),
    ("Madrid, ES", "GEANT/RNP", "RedCLARA"),
    ("McLean, US", "BRIDGES", "Internet2/WIX"),
    ("Paris, FR", "GEANT", "SWITCH"),
    ("Seattle, US", "KREONET", "Internet2/PacificWave"),
    ("Singapore, SG", "GEANT/KREONET", "SingAREN"),
)

#: The 11 ASes running scion-go-multiping (Section 5.4): 5 in Europe,
#: 2 in Asia, 3 in North America, 1 in South America.
MEASUREMENT_VANTAGE_POINTS: Tuple[str, ...] = (
    "71-20965", "71-559", "71-1140", "71-2546", "71-2:0:42",   # EU
    "71-2:0:3b", "71-2:0:3d",                                   # Asia
    "71-225", "71-2:0:48", "71-2:0:4a",                         # NA
    "71-2:0:5c",                                                # SA
)

#: The 9 ASes shown on the Figure 8/9 matrices.
FIG8_ASES: Tuple[str, ...] = (
    "71-20965", "71-225", "71-2:0:3b", "71-2:0:3d", "71-2:0:3e",
    "71-2:0:3f", "71-2:0:48", "71-2:0:4a", "71-2:0:5c",
)

_BY_IA: Dict[str, Participant] = {p.ia: p for p in SCIERA_PARTICIPANTS}

#: Route-indirectness factors, calibrated so the static SCION/IP RTT-ratio
#: distribution matches Figure 6 of the paper (~38% of pairs faster over
#: SCION, ~80% under 1.25x, heavy-tailed outliers). NREN Layer-2 circuits
#: ride long-haul research backbones (slightly more detoured than the best
#: commercial routes), while the commercial baseline buys near-direct
#: transit — that asymmetry is exactly the paper's median finding.
_SCIERA_ROUTE_FACTOR = 1.52


def participant(ia: str) -> Participant:
    try:
        return _BY_IA[ia]
    except KeyError:
        raise KeyError(f"unknown SCIERA participant {ia!r}") from None


def link_latency_s(link: DeclaredLink) -> float:
    """One-way latency of a declared link, AS center to AS center."""
    a_city = participant(link.a).city
    b_city = participant(link.b).city
    return propagation_delay_s(
        city(a_city), city(b_city), route_factor=_SCIERA_ROUTE_FACTOR * link.stretch
    )


def build_sciera_topology(include_planned: bool = False) -> GlobalTopology:
    """Instantiate Figure 1 as a :class:`GlobalTopology`."""
    topo = GlobalTopology()
    for p in SCIERA_PARTICIPANTS:
        if p.planned and not include_planned:
            continue
        topo.add_as(
            IA.parse(p.ia), is_core=p.is_core, name=p.name,
            region=p.region, location=city(p.city), flavor=p.flavor,
        )
    for link in SCIERA_LINKS:
        if not include_planned and (
            participant(link.a).planned or participant(link.b).planned
        ):
            continue
        topo.add_link(
            IA.parse(link.a), IA.parse(link.b), link.a_type,
            latency_s=link_latency_s(link), link_name=link.name,
        )
    topo.validate()
    return topo


#: Commercial-Internet hub cities (major transit/IXP locations).
_IP_HUBS: Tuple[str, ...] = (
    "frankfurt", "london", "amsterdam", "paris", "madrid",
    "ashburn", "chicago", "seattle", "jacksonville",
    "singapore", "hong_kong", "seoul", "sao_paulo", "jeddah", "zurich",
)

#: Hub pairs with direct commercial capacity (a superset of SCIERA's mesh;
#: the commercial Internet has direct routes the academic L2 mesh lacks).
_IP_HUB_LINKS: Tuple[Tuple[str, str], ...] = (
    # Intra-Europe mesh.
    ("frankfurt", "london"), ("frankfurt", "amsterdam"), ("frankfurt", "paris"),
    ("frankfurt", "zurich"), ("london", "amsterdam"), ("london", "paris"),
    ("paris", "madrid"), ("london", "madrid"), ("amsterdam", "zurich"),
    # Transatlantic.
    ("london", "ashburn"), ("amsterdam", "ashburn"), ("frankfurt", "ashburn"),
    ("paris", "ashburn"), ("london", "chicago"),
    # North America.
    ("ashburn", "chicago"), ("ashburn", "jacksonville"), ("chicago", "seattle"),
    ("ashburn", "seattle"),
    # Transpacific and intra-Asia. Long-haul commercial routes detour: most
    # Seoul-Singapore traffic rides via Hong Kong, and Korea reaches the US
    # through Seattle/Tokyo landings — there is no magic direct fiber.
    ("seattle", "seoul"), ("seattle", "hong_kong"), ("chicago", "seoul"),
    ("seoul", "hong_kong"), ("hong_kong", "singapore"),
    # Europe-Asia and Middle East.
    ("frankfurt", "singapore"), ("london", "singapore"), ("frankfurt", "jeddah"),
    ("london", "hong_kong"),
    # South America: commercial transit to Brazil overwhelmingly lands in
    # Florida/Virginia; Europe is reached through the US.
    ("sao_paulo", "ashburn"), ("sao_paulo", "jacksonville"),
)

#: City each participant's commercial transit attaches to.
_IP_ATTACHMENT: Dict[str, str] = {
    "71-20965": "frankfurt",
    "71-2:0:35": "ashburn",
    "71-2:0:3b": "seoul",
    "71-2:0:3c": "hong_kong",
    "71-2:0:3d": "singapore",
    "71-2:0:3e": "amsterdam",
    "71-2:0:3f": "chicago",
    "71-2:0:40": "seattle",
    "71-559": "zurich",
    "71-1140": "amsterdam",
    "71-2546": "frankfurt",
    "71-2:0:42": "frankfurt",
    "71-2:0:49": "frankfurt",
    "71-203311": "frankfurt",
    "71-225": "ashburn",
    "71-88": "ashburn",
    "71-2:0:48": "ashburn",
    "71-398900": "ashburn",
    "71-2:0:4a": "ashburn",
    "71-2:0:18": "singapore",
    "71-2:0:61": "singapore",
    "71-2:0:4d": "seoul",
    "71-4158": "hong_kong",
    "71-50999": "jeddah",
    "71-1916": "sao_paulo",
    "71-2:0:5c": "sao_paulo",
    "71-10881": "sao_paulo",
    "71-37288": "london",
    "64-559": "zurich",
    "64-2:0:9": "zurich",
}

#: Commercial routes are straighter than academic L2 VLAN detours.
_IP_ROUTE_FACTOR = 1.42


#: BGP path-quality variance: per-pair inflation 1 + COEF * u**SHAPE with u
#: uniform per pair. Median pairs see a few percent; the worst decile sees
#: 30-60% — remote peering, hot-potato exits and congested transit, which
#: is where SCION's 23.7% p90 improvement (Figure 5) comes from.
_IP_INFLATION_COEF = 2.0
_IP_INFLATION_SHAPE = 8.0


def _pair_inflation(src: str, dst: str) -> float:
    import hashlib

    key = "|".join(sorted((src, dst))).encode()
    u = int.from_bytes(hashlib.sha256(key).digest()[:8], "big") / 2**64
    return 1.0 + _IP_INFLATION_COEF * u ** _IP_INFLATION_SHAPE


def build_ip_internet(include_planned: bool = False) -> IpInternet:
    """The BGP Internet baseline over the same participants."""
    net = IpInternet()
    net.set_pair_inflation(_pair_inflation)
    for hub in _IP_HUBS:
        net.add_node(f"hub:{hub}")
    for a, b in _IP_HUB_LINKS:
        net.add_link(
            f"hub:{a}", f"hub:{b}",
            latency_s=propagation_delay_s(
                city(a), city(b), route_factor=_IP_ROUTE_FACTOR
            ),
        )
    for p in SCIERA_PARTICIPANTS:
        if p.planned and not include_planned:
            continue
        hub = _IP_ATTACHMENT[p.ia]
        net.add_node(p.ia)
        net.add_link(
            p.ia, f"hub:{hub}",
            latency_s=propagation_delay_s(
                city(p.city), city(hub), route_factor=_IP_ROUTE_FACTOR
            ),
            link_name=f"ip-access:{p.ia}",
        )
    return net
