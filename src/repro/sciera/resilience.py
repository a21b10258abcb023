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

from repro.scion.topology import GlobalTopology

#: node -> neighbour -> link name -> latency_s, in insertion order; both
#: directions share one inner dict (a multigraph's adjacency).
Adjacency = Dict[str, Dict[str, Dict[str, float]]]


@dataclass
class Fig10cResult:
    fractions_removed: List[float]           # x axis, 0..1
    multipath_connectivity: List[float]      # mean fraction of pairs connected
    singlepath_connectivity: List[float]
    runs: int

    def multipath_at(self, fraction: float) -> float:
        index = int(round(fraction * (len(self.fractions_removed) - 1)))
        return self.multipath_connectivity[index]

    def singlepath_at(self, fraction: float) -> float:
        index = int(round(fraction * (len(self.fractions_removed) - 1)))
        return self.singlepath_connectivity[index]


def _adjacency(topology: GlobalTopology) -> Adjacency:
    adjacency: Adjacency = {str(ia): {} for ia in topology.ases}
    for name, ((ia_a, _), (ia_b, _)) in topology.link_attachments.items():
        a, b = str(ia_a), str(ia_b)
        links = adjacency[a].setdefault(b, {})
        adjacency[b].setdefault(a, links)
        links[name] = topology.links[name].latency_s
    return adjacency


def _edges(adjacency: Adjacency) -> List[Tuple[str, str, str, float]]:
    """Every link once, as ``(u, v, name, latency_s)``: ``u`` is the end
    added first, and the order is the adjacency's insertion order."""
    seen = set()
    edges = []
    for u, neighbours in adjacency.items():
        for v, links in neighbours.items():
            if v not in seen:
                edges.extend((u, v, name, lat) for name, lat in links.items())
        seen.add(u)
    return edges


def _single_paths(adjacency: Adjacency) -> Dict[Tuple[str, str], List[str]]:
    """One fixed shortest path per pair, as link-name lists (BGP-style).

    Hop count first (BGP semantics), deterministic tie-break: a level-order
    BFS that expands neighbours in insertion order.  Parallel links collapse
    to the lowest-latency one — a single-path network keeps redundant links
    "solely as backups", which this model denies it.
    """
    simple: Dict[str, Dict[str, Tuple[float, str]]] = {n: {} for n in adjacency}
    for u, v, name, latency in _edges(adjacency):
        existing = simple[u].get(v)
        if existing is None or latency < existing[0]:
            simple[u][v] = simple[v][u] = (latency, name)
    paths: Dict[Tuple[str, str], List[str]] = {}
    for src in sorted(simple):
        reached = {src: []}
        level = [src]
        while level:
            next_level = []
            for node in level:
                for neighbour, (_, name) in simple[node].items():
                    if neighbour not in reached:
                        reached[neighbour] = reached[node] + [name]
                        next_level.append(neighbour)
            level = next_level
        for dst, names in reached.items():
            if dst != src:
                paths[(src, dst)] = names
    return paths


def _connected_ordered_pairs(alive: Dict[str, Dict[str, int]]) -> int:
    """Ordered pairs within one component, n * (n - 1) per component."""
    total = 0
    unseen = set(alive)
    while unseen:
        stack = [unseen.pop()]
        size = 0
        while stack:
            size += 1
            for neighbour in alive[stack.pop()]:
                if neighbour in unseen:
                    unseen.remove(neighbour)
                    stack.append(neighbour)
        total += size * (size - 1)
    return total


def fig10c_link_failure_sim(
    topology: GlobalTopology,
    runs: int = 100,
    seed: int = 0,
) -> Fig10cResult:
    """The paper's Figure 10c simulation over the given topology."""
    if runs < 1:
        raise ValueError("need at least one run")
    adjacency = _adjacency(topology)
    edge_list = sorted((u, v, name) for u, v, name, _ in _edges(adjacency))
    total_edges = len(edge_list)
    pair_count = len(adjacency) * (len(adjacency) - 1)
    single = _single_paths(adjacency)

    steps = total_edges + 1
    multipath = [0.0] * steps
    singlepath = [0.0] * steps
    rng = random.Random(seed)

    # Reverse index link -> single paths crossing it: removing a link kills
    # exactly the pairs it serves, so the single-path count updates
    # incrementally instead of rescanning every pair per step.
    single_users: Dict[str, List[Tuple[str, str]]] = {}
    for pair, names in single.items():
        for name in names:
            single_users.setdefault(name, []).append(pair)

    for _ in range(runs):
        order = edge_list[:]
        rng.shuffle(order)
        # node -> neighbour -> live parallel links; self-loops never
        # change a component, so they are left out.
        alive = {
            u: {v: len(links) for v, links in neighbours.items() if v != u}
            for u, neighbours in adjacency.items()
        }
        pair_alive = dict.fromkeys(single, True)
        single_connected = len(single)
        for step in range(steps):
            if step > 0:
                u, v, name = order[step - 1]
                if u != v:
                    alive[u][v] = alive[v][u] = alive[u][v] - 1
                    if not alive[u][v]:
                        del alive[u][v], alive[v][u]
                for pair in single_users.get(name, ()):
                    if pair_alive[pair]:
                        pair_alive[pair] = False
                        single_connected -= 1
            multipath[step] += _connected_ordered_pairs(alive) / pair_count
            singlepath[step] += single_connected / pair_count

    # numpy.linspace(0, 1, steps) bit for bit: i * (1 / (steps - 1)), the
    # last point exactly 1.
    fractions = [i * (1.0 / total_edges) for i in range(total_edges)]
    fractions.append(1.0 if total_edges else 0.0)
    return Fig10cResult(
        fractions_removed=fractions,
        multipath_connectivity=[total / runs for total in multipath],
        singlepath_connectivity=[total / runs for total in singlepath],
        runs=runs,
    )
