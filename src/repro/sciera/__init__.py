"""The SCIERA deployment: topology, measurement tooling, Science-DMZ, apps."""

from repro.sciera.topology_data import (
    SCIERA_PARTICIPANTS,
    SCIERA_LINKS,
    SCIERA_POPS,
    MEASUREMENT_VANTAGE_POINTS,
    FIG8_ASES,
    build_sciera_topology,
    build_ip_internet,
)
from repro.sciera.build import ScieraWorld, build_sciera

__all__ = [
    "SCIERA_PARTICIPANTS",
    "SCIERA_LINKS",
    "SCIERA_POPS",
    "MEASUREMENT_VANTAGE_POINTS",
    "FIG8_ASES",
    "build_sciera_topology",
    "build_ip_internet",
    "ScieraWorld",
    "build_sciera",
]
