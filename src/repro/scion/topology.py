"""AS-level topology descriptions.

A :class:`GlobalTopology` holds one :class:`AsTopology` per AS: its
interfaces (numbered locally, as in SCION — the paper combines these
AS-unique interface ids with ISD-AS numbers to obtain globally unique ids),
the inter-AS links those interfaces attach to, core flags, and the
software flavor running there (open-source scionproto vs. Anapaya), which
Section 4.5 of the paper calls out as deliberately heterogeneous.

Inter-AS links are Layer-2 (VLAN) attachments in SCIERA — the "BGP-free"
property — so each link here corresponds to one :class:`repro.netsim.link.Link`.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.netsim.geo import GeoPoint
from repro.netsim.link import Link
from repro.scion.addr import IA


class LinkType(enum.Enum):
    """Relationship a link expresses, from the perspective of one AS."""

    CORE = "core"          # core AS <-> core AS
    PARENT = "parent"      # toward the provider (up)
    CHILD = "child"        # toward the customer (down)
    PEER = "peer"          # lateral peering


class TopologyError(Exception):
    """Raised for inconsistent topology construction or lookups."""


@dataclass
class Interface:
    """One SCION interface of an AS."""

    ifid: int
    link_type: LinkType
    remote_ia: IA
    remote_ifid: int
    link_name: str

    def global_id(self, local_ia: IA) -> str:
        """Globally unique interface identifier (paper, Section 5.4)."""
        return f"{local_ia}#{self.ifid}"


@dataclass
class AsTopology:
    """Everything one AS knows about itself."""

    ia: IA
    is_core: bool = False
    name: str = ""
    region: str = ""
    location: Optional[GeoPoint] = None
    flavor: str = "open-source"  # or "anapaya"
    mtu: int = 1472
    interfaces: Dict[int, Interface] = field(default_factory=dict)
    control_address: str = ""
    border_routers: List[str] = field(default_factory=list)
    _next_ifid: int = 1

    def __post_init__(self) -> None:
        if not self.control_address:
            self.control_address = f"10.{self.ia.isd % 255}.{self.ia.asn % 255}.1"
        if not self.border_routers:
            self.border_routers = [f"10.{self.ia.isd % 255}.{self.ia.asn % 255}.2"]

    def allocate_interface(
        self, link_type: LinkType, remote_ia: IA, link_name: str
    ) -> Interface:
        ifid = self._next_ifid
        self._next_ifid += 1
        iface = Interface(
            ifid=ifid,
            link_type=link_type,
            remote_ia=remote_ia,
            remote_ifid=0,  # patched once the remote side allocated
            link_name=link_name,
        )
        self.interfaces[ifid] = iface
        return iface

    def neighbors(self, link_type: Optional[LinkType] = None) -> List[IA]:
        seen: List[IA] = []
        for iface in self.interfaces.values():
            if link_type is not None and iface.link_type is not link_type:
                continue
            if iface.remote_ia not in seen:
                seen.append(iface.remote_ia)
        return seen


#: How the far end of a link sees the near end's link type.
_INVERSE_TYPE = {
    LinkType.CORE: LinkType.CORE,
    LinkType.PARENT: LinkType.CHILD,
    LinkType.CHILD: LinkType.PARENT,
    LinkType.PEER: LinkType.PEER,
}


class GlobalTopology:
    """The full multi-ISD topology plus the links connecting it."""

    def __init__(self) -> None:
        self.ases: Dict[IA, AsTopology] = {}
        self.links: Dict[str, Link] = {}
        #: link name -> ((ia_a, ifid_a), (ia_b, ifid_b))
        self.link_attachments: Dict[str, Tuple[Tuple[IA, int], Tuple[IA, int]]] = {}

    def add_as(
        self,
        ia: IA,
        is_core: bool = False,
        name: str = "",
        region: str = "",
        location: Optional[GeoPoint] = None,
        flavor: str = "open-source",
    ) -> AsTopology:
        if ia in self.ases:
            raise TopologyError(f"AS {ia} already present")
        topo = AsTopology(
            ia=ia, is_core=is_core, name=name or str(ia), region=region,
            location=location, flavor=flavor,
        )
        self.ases[ia] = topo
        return topo

    def get(self, ia: IA) -> AsTopology:
        try:
            return self.ases[ia]
        except KeyError:
            raise TopologyError(f"unknown AS {ia}") from None

    def add_link(
        self,
        a: IA,
        b: IA,
        a_type: LinkType,
        latency_s: float,
        link_name: Optional[str] = None,
        bandwidth_bps: Optional[float] = None,
    ) -> Link:
        """Attach a new inter-AS link; interface ids are auto-allocated.

        ``a_type`` is the relationship from ``a``'s perspective (e.g.
        ``LinkType.PARENT`` means ``b`` is ``a``'s provider).
        """
        topo_a, topo_b = self.get(a), self.get(b)
        name = link_name or self._default_link_name(a, b)
        if name in self.links:
            raise TopologyError(f"link {name!r} already exists")
        link = Link(name, str(a), str(b), latency_s, bandwidth_bps=bandwidth_bps)
        # The ASes' own IA instances, not the caller's equal copies: one
        # shared object per AS makes IA comparisons identity checks.
        a, b = topo_a.ia, topo_b.ia
        iface_a = topo_a.allocate_interface(a_type, b, name)
        iface_b = topo_b.allocate_interface(_INVERSE_TYPE[a_type], a, name)
        iface_a.remote_ifid = iface_b.ifid
        iface_b.remote_ifid = iface_a.ifid
        self.links[name] = link
        self.link_attachments[name] = ((a, iface_a.ifid), (b, iface_b.ifid))
        return link

    def _default_link_name(self, a: IA, b: IA) -> str:
        base = f"{a}--{b}"
        name = base
        suffix = 2
        while name in self.links:
            name = f"{base}#{suffix}"
            suffix += 1
        return name

    def link_between(self, a: IA, ifid_a: int) -> Optional[Link]:
        iface = self.get(a).interfaces.get(ifid_a)
        if iface is None:
            return None
        return self.links.get(iface.link_name)

    def core_ases(self, isd: Optional[int] = None) -> List[IA]:
        return sorted(
            ia for ia, topo in self.ases.items()
            if topo.is_core and (isd is None or ia.isd == isd)
        )

    def isds(self) -> List[int]:
        return sorted({ia.isd for ia in self.ases})

    def validate(self) -> None:
        """Check structural invariants; raise TopologyError on violation."""
        for name, ((ia_a, ifid_a), (ia_b, ifid_b)) in self.link_attachments.items():
            iface_a = self.get(ia_a).interfaces.get(ifid_a)
            iface_b = self.get(ia_b).interfaces.get(ifid_b)
            if iface_a is None or iface_b is None:
                raise TopologyError(f"link {name!r} references missing interface")
            if iface_a.remote_ia != ia_b or iface_b.remote_ia != ia_a:
                raise TopologyError(f"link {name!r} attachment mismatch")
            if iface_a.remote_ifid != iface_b.ifid or iface_b.remote_ifid != iface_a.ifid:
                raise TopologyError(f"link {name!r} interface ids not symmetric")
            if _INVERSE_TYPE[iface_a.link_type] is not iface_b.link_type:
                raise TopologyError(f"link {name!r} type mismatch")
        for ia, topo in self.ases.items():
            if not topo.is_core:
                if not topo.neighbors(LinkType.PARENT):
                    raise TopologyError(f"non-core AS {ia} has no parent link")
            if topo.is_core:
                if topo.neighbors(LinkType.PARENT):
                    raise TopologyError(f"core AS {ia} must not have parent links")


def random_topology(
    n_ases: int,
    seed: int = 0,
    isd: int = 71,
    n_core: Optional[int] = None,
    max_parents: int = 2,
    peer_fraction: float = 0.1,
) -> GlobalTopology:
    """A seeded random SCION topology with ``n_ases`` ASes in one ISD.

    The shape mirrors SCIERA's growth pattern (and the ROADMAP's scale-out
    target): a small fully-meshed core, and non-core ASes attached one at a
    time with 1..``max_parents`` parent links to already-placed ASes — so
    the provider hierarchy is a DAG of varying depth, multi-homing is
    common, and every AS is reachable.  A ``peer_fraction`` of the non-core
    ASes get lateral peering links.  Construction is fully determined by
    ``seed``; two calls with the same arguments produce identical
    topologies (same links, names, and interface ids).
    """
    if n_ases < 1:
        raise TopologyError("n_ases must be >= 1")
    if max_parents < 1:
        raise TopologyError("max_parents must be >= 1")
    rng = random.Random(seed)
    if n_core is None:
        n_core = max(1, int(n_ases ** 0.5) // 2)
    n_core = min(n_core, n_ases)

    topo = GlobalTopology()
    cores = [IA(isd, index + 1) for index in range(n_core)]
    for core in cores:
        topo.add_as(core, is_core=True, name=f"core-{core.asn}")
    # Full core mesh: with sqrt-scaled cores this stays small (64 ASes ->
    # 4 cores -> 6 core links) and gives the combinator real core-segment
    # diversity.
    for index, a in enumerate(cores):
        for b in cores[index + 1:]:
            topo.add_link(a, b, LinkType.CORE, rng.uniform(0.002, 0.050))

    leaves = [IA(isd, 100 + index) for index in range(n_ases - n_core)]
    placed: List[IA] = list(cores)
    for leaf in leaves:
        topo.add_as(leaf, name=f"as-{leaf.asn}")
        n_parents = rng.randint(1, min(max_parents, len(placed)))
        for parent in rng.sample(placed, n_parents):
            topo.add_link(leaf, parent, LinkType.PARENT,
                          rng.uniform(0.001, 0.020))
        placed.append(leaf)
    n_peers = int(peer_fraction * len(leaves))
    for _ in range(n_peers):
        if len(leaves) < 2:
            break
        a, b = rng.sample(leaves, 2)
        topo.add_link(a, b, LinkType.PEER, rng.uniform(0.001, 0.010))
    topo.validate()
    return topo
