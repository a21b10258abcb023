"""A BGP-like single-path inter-domain baseline: "the IP Internet".

The paper compares SCION RTTs against ICMP pings over the BGP-routed
Internet. We model the essential properties of that baseline:

* exactly **one** forwarding path per (src, dst), chosen by the network,
  not the host;
* path selection follows BGP semantics, *not* latency: shortest AS-path
  first, then a deterministic tie-break (lowest next-hop identifier),
  mirroring BGP's arbitrary-but-stable tie-breaking;
* when a link fails, routing re-converges to the next-best single path
  (or no path);
* the commercial Internet's topology is distinct from SCIERA's Layer-2
  topology — it is usually denser (direct transit), which is why the paper
  sees IP *winning at the median* while SCION wins in the tail.

The graph is supplied by the caller (for SCIERA experiments it is built in
:mod:`repro.sciera.topology_data`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx


@dataclass(frozen=True)
class IpRoute:
    """The single BGP-selected route between a pair of nodes."""

    src: str
    dst: str
    hops: Tuple[str, ...]
    rtt_s: float


class IpInternet:
    """Single-path routing over an undirected AS-level graph.

    Edges carry ``latency_s`` (one-way) and optionally ``link_name`` tying
    them to a :class:`repro.netsim.link.Link` for shared failure state.
    """

    def __init__(self) -> None:
        self._graph = nx.Graph()
        self._route_cache: Dict[Tuple[str, str], Optional[IpRoute]] = {}
        self._pair_inflation = None

    def set_pair_inflation(self, fn) -> None:
        """Install a per-pair RTT inflation callable ``fn(src, dst) -> float``.

        Models BGP path-quality variance the hop-count graph cannot express:
        hot-potato exits, remote peering, and congested commercial transit
        make real BGP paths unevenly worse than the fiber distance. The
        callable must be deterministic per pair (>= 1.0).
        """
        self._pair_inflation = fn
        self._route_cache.clear()

    # -- topology construction -------------------------------------------------

    def add_node(self, name: str) -> None:
        self._graph.add_node(name)

    def add_link(
        self,
        a: str,
        b: str,
        latency_s: float,
        link_name: Optional[str] = None,
    ) -> None:
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self._graph.add_edge(a, b, latency_s=latency_s, up=True,
                             link_name=link_name or f"ip:{a}--{b}")
        self._route_cache.clear()

    @property
    def nodes(self) -> List[str]:
        return list(self._graph.nodes)

    # -- failure state ---------------------------------------------------------

    def set_link_state(self, a: str, b: str, up: bool) -> None:
        if not self._graph.has_edge(a, b):
            raise KeyError(f"no IP link between {a!r} and {b!r}")
        self._graph.edges[a, b]["up"] = up
        self._route_cache.clear()

    def set_link_state_by_name(self, link_name: str, up: bool) -> None:
        found = False
        for a, b, data in self._graph.edges(data=True):
            if data.get("link_name") == link_name:
                data["up"] = up
                found = True
        if not found:
            raise KeyError(f"no IP link named {link_name!r}")
        self._route_cache.clear()

    def _up_subgraph(self) -> nx.Graph:
        edges = [
            (a, b)
            for a, b, data in self._graph.edges(data=True)
            if data.get("up", True)
        ]
        sub = self._graph.edge_subgraph(edges).copy() if edges else nx.Graph()
        sub.add_nodes_from(self._graph.nodes)
        return sub

    # -- routing ---------------------------------------------------------------

    def route(self, src: str, dst: str) -> Optional[IpRoute]:
        """The single BGP-selected route, or None if partitioned.

        BGP semantics: minimize AS-path length; among equal-length paths,
        prefer the one whose hop sequence is lexicographically smallest
        (a deterministic stand-in for the lowest-router-id tie-break).
        """
        if src not in self._graph or dst not in self._graph:
            raise KeyError(f"unknown node in route({src!r}, {dst!r})")
        if src == dst:
            return IpRoute(src, dst, (src,), 0.0)
        key = (src, dst)
        if key in self._route_cache:
            return self._route_cache[key]
        sub = self._up_subgraph()
        try:
            hops = self._bgp_best_path(sub, src, dst)
        except nx.NetworkXNoPath:
            self._route_cache[key] = None
            return None
        one_way = sum(
            sub.edges[u, v]["latency_s"] for u, v in zip(hops, hops[1:])
        )
        inflation = 1.0
        if self._pair_inflation is not None:
            inflation = self._pair_inflation(src, dst)
            if inflation < 1.0:
                raise ValueError(
                    f"pair inflation must be >= 1.0, got {inflation}"
                )
        route = IpRoute(src, dst, tuple(hops), 2.0 * one_way * inflation)
        self._route_cache[key] = route
        return route

    @staticmethod
    def _bgp_best_path(graph: nx.Graph, src: str, dst: str) -> List[str]:
        # BFS by hop count, expanding neighbors in sorted order and keeping
        # the first path found at the minimal depth: this yields the
        # hop-count-minimal, lexicographically-smallest path.
        if not nx.has_path(graph, src, dst):
            raise nx.NetworkXNoPath(f"{src} -> {dst}")
        best: Dict[str, List[str]] = {src: [src]}
        frontier = [src]
        while frontier:
            next_frontier: List[str] = []
            for node in sorted(frontier, key=lambda n: best[n]):
                for neighbor in sorted(graph.neighbors(node)):
                    if neighbor not in best:
                        best[neighbor] = best[node] + [neighbor]
                        next_frontier.append(neighbor)
            if dst in best:
                return best[dst]
            frontier = next_frontier
        raise nx.NetworkXNoPath(f"{src} -> {dst}")

    def rtt_s(self, src: str, dst: str) -> Optional[float]:
        """Round-trip time along the current BGP route, or None."""
        route = self.route(src, dst)
        return None if route is None else route.rtt_s

    def connectivity_matrix(self) -> Dict[Tuple[str, str], bool]:
        """Whether each ordered pair currently has a route."""
        result: Dict[Tuple[str, str], bool] = {}
        for src in self._graph.nodes:
            for dst in self._graph.nodes:
                if src == dst:
                    continue
                result[(src, dst)] = self.route(src, dst) is not None
        return result
