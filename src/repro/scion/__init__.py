"""A from-scratch SCION protocol stack in Python.

Subpackages:

* :mod:`repro.scion.addr` — ISD/AS/IA addressing.
* :mod:`repro.scion.topology` — AS-level topology and inter-AS links.
* :mod:`repro.scion.crypto` — RSA, TRCs, CP-PKI, CA, hop-field MACs.
* :mod:`repro.scion.control` — beaconing, path servers, segment combination.
* :mod:`repro.scion.dataplane` — border routers, delivery, the end-host data path.
* :mod:`repro.scion.network` — the orchestration layer tying it together.
"""

from repro.scion.addr import IA, HostAddr, AddrError
from repro.scion.topology import GlobalTopology, AsTopology, LinkType, TopologyError
from repro.scion.path import DataplanePath, PathMeta, HopField, InfoField
from repro.scion.packet import ScionPacket, PacketError
from repro.scion.network import ScionNetwork

__all__ = [
    "IA",
    "HostAddr",
    "AddrError",
    "GlobalTopology",
    "AsTopology",
    "LinkType",
    "TopologyError",
    "DataplanePath",
    "PathMeta",
    "HopField",
    "InfoField",
    "ScionPacket",
    "PacketError",
    "ScionNetwork",
]
