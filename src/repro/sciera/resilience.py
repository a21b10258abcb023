"""Link-failure resilience: Figure 10c of the paper.

"In 100 simulation runs, we randomly remove between 0% and 100% of the
links (one link per step) and calculate how many AS pairs still have
connectivity. [...] 90% of all pairs still have connectivity when 20% of
the links are failing in the multipath case, whereas this number drops to
50% when using only a single path."

Multipath connectivity means *any* route survives (SCION end hosts can use
every available combination); single-path means the one precomputed
shortest path (BGP-style) must survive intact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import networkx as nx
import numpy as np

from repro.scion.topology import GlobalTopology


@dataclass
class Fig10cResult:
    fractions_removed: np.ndarray           # x axis, 0..1
    multipath_connectivity: np.ndarray      # mean fraction of pairs connected
    singlepath_connectivity: np.ndarray
    runs: int

    def multipath_at(self, fraction: float) -> float:
        index = int(round(fraction * (len(self.fractions_removed) - 1)))
        return float(self.multipath_connectivity[index])

    def singlepath_at(self, fraction: float) -> float:
        index = int(round(fraction * (len(self.fractions_removed) - 1)))
        return float(self.singlepath_connectivity[index])


def _as_multigraph(topology: GlobalTopology) -> nx.MultiGraph:
    graph = nx.MultiGraph()
    for ia in topology.ases:
        graph.add_node(str(ia))
    for name, ((ia_a, _), (ia_b, _)) in topology.link_attachments.items():
        graph.add_edge(str(ia_a), str(ia_b), key=name,
                       latency=topology.links[name].latency_s)
    return graph


def _single_paths(graph: nx.MultiGraph) -> Dict[Tuple[str, str], List[Tuple[str, str, str]]]:
    """One fixed shortest path per pair, as edge lists (BGP-style).

    Hop count first (BGP semantics), deterministic tie-break; parallel
    edges collapse to the lowest-latency one — a single-path network keeps
    redundant links "solely as backups", which this model denies it.
    """
    simple = nx.Graph()
    simple.add_nodes_from(graph.nodes)
    for u, v, key, data in graph.edges(keys=True, data=True):
        existing = simple.get_edge_data(u, v)
        if existing is None or data["latency"] < existing["latency"]:
            simple.add_edge(u, v, latency=data["latency"], key=key)
    paths: Dict[Tuple[str, str], List[Tuple[str, str, str]]] = {}
    for src in sorted(simple.nodes):
        try:
            reachable = nx.single_source_shortest_path(simple, src)
        except nx.NetworkXError:
            continue
        for dst, node_path in reachable.items():
            if src == dst:
                continue
            edges = [
                (u, v, simple.edges[u, v]["key"])
                for u, v in zip(node_path, node_path[1:])
            ]
            paths[(src, dst)] = edges
    return paths


def fig10c_link_failure_sim(
    topology: GlobalTopology,
    runs: int = 100,
    seed: int = 0,
) -> Fig10cResult:
    """The paper's Figure 10c simulation over the given topology."""
    if runs < 1:
        raise ValueError("need at least one run")
    graph = _as_multigraph(topology)
    edge_list = sorted(graph.edges(keys=True))
    total_edges = len(edge_list)
    nodes = sorted(graph.nodes)
    all_pairs = [(a, b) for a in nodes for b in nodes if a != b]
    single = _single_paths(graph)

    steps = total_edges + 1
    multipath = np.zeros(steps)
    singlepath = np.zeros(steps)
    rng = random.Random(seed)

    # Reverse index link -> single paths crossing it: removing a link kills
    # exactly the pairs it serves, so the single-path count updates
    # incrementally instead of rescanning every pair per step.
    single_users: Dict[str, List[Tuple[str, str]]] = {}
    for pair, edges in single.items():
        for (_, _, key) in edges:
            single_users.setdefault(key, []).append(pair)

    for _ in range(runs):
        order = edge_list[:]
        rng.shuffle(order)
        alive = nx.MultiGraph()
        alive.add_nodes_from(nodes)
        for u, v, key in edge_list:
            alive.add_edge(u, v, key=key)
        pair_alive = dict.fromkeys(single, True)
        single_connected = len(single)
        for step in range(steps):
            if step > 0:
                u, v, key = order[step - 1]
                alive.remove_edge(u, v, key=key)
                for pair in single_users.get(key, ()):
                    if pair_alive[pair]:
                        pair_alive[pair] = False
                        single_connected -= 1
            # Ordered pairs within one component: n * (n - 1) each.
            multi_connected = sum(
                len(component) * (len(component) - 1)
                for component in nx.connected_components(alive)
            )
            multipath[step] += multi_connected / len(all_pairs)
            singlepath[step] += single_connected / len(all_pairs)

    multipath /= runs
    singlepath /= runs
    fractions = np.linspace(0.0, 1.0, steps)
    return Fig10cResult(
        fractions_removed=fractions,
        multipath_connectivity=multipath,
        singlepath_connectivity=singlepath,
        runs=runs,
    )
