"""The stdlib statistics and graph code of the runtime against numpy and
networkx, which stay test dependencies only.

The fig5/fig7 reports and the fig10c series are pinned, so each replacement
must give numpy's and networkx's results exactly: the linear percentile and
the median bit for bit, the population standard deviation to 1e-12 (numpy
sums pairwise, ``statistics`` rounds correctly), and the fig10c simulation
bit for bit on SCIERA and on seeded random topologies.
"""

import random
import statistics

import networkx as nx
import numpy as np
import pytest

from repro.sciera.analysis import percentile
from repro.sciera.resilience import fig10c_link_failure_sim
from repro.scion.topology import random_topology


def _seeded_lists(count=2000, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(1, 60)
        yield [rng.lognormvariate(4.5, 0.8) for _ in range(size)]


def test_percentile_and_median_match_numpy_exactly():
    for values in _seeded_lists():
        for q in (10, 25, 50, 75, 90, 99):
            assert percentile(values, q) == float(np.percentile(values, q))
        assert statistics.median(values) == float(np.median(values))


def test_pstdev_matches_numpy_std():
    for values in _seeded_lists():
        assert statistics.pstdev(values) == pytest.approx(
            float(np.std(values)), rel=1e-12)


def _networkx_fig10c(topology, runs, seed):
    """Figure 10c as it was written on networkx and numpy."""
    graph = nx.MultiGraph()
    for ia in topology.ases:
        graph.add_node(str(ia))
    for name, ((ia_a, _), (ia_b, _)) in topology.link_attachments.items():
        graph.add_edge(str(ia_a), str(ia_b), key=name,
                       latency=topology.links[name].latency_s)
    simple = nx.Graph()
    simple.add_nodes_from(graph.nodes)
    for u, v, key, data in graph.edges(keys=True, data=True):
        existing = simple.get_edge_data(u, v)
        if existing is None or data["latency"] < existing["latency"]:
            simple.add_edge(u, v, latency=data["latency"], key=key)
    single_users = {}
    single_count = 0
    for src in sorted(simple.nodes):
        for dst, path in nx.single_source_shortest_path(simple, src).items():
            if src != dst:
                single_count += 1
                for u, v in zip(path, path[1:]):
                    single_users.setdefault(
                        simple.edges[u, v]["key"], []).append((src, dst))
    edge_list = sorted(graph.edges(keys=True))
    nodes = sorted(graph.nodes)
    pairs = len(nodes) * (len(nodes) - 1)
    steps = len(edge_list) + 1
    multipath, singlepath = np.zeros(steps), np.zeros(steps)
    rng = random.Random(seed)
    for _ in range(runs):
        order = edge_list[:]
        rng.shuffle(order)
        alive = nx.MultiGraph()
        alive.add_nodes_from(nodes)
        for u, v, key in edge_list:
            alive.add_edge(u, v, key=key)
        dead = set()
        for step in range(steps):
            if step > 0:
                u, v, key = order[step - 1]
                alive.remove_edge(u, v, key=key)
                dead.update(single_users.get(key, ()))
            multipath[step] += sum(
                len(c) * (len(c) - 1) for c in nx.connected_components(alive)
            ) / pairs
            singlepath[step] += (single_count - len(dead)) / pairs
    return np.linspace(0.0, 1.0, steps), multipath / runs, singlepath / runs


def _assert_identical(topology, runs, seed):
    result = fig10c_link_failure_sim(topology, runs=runs, seed=seed)
    fractions, multipath, singlepath = _networkx_fig10c(topology, runs, seed)
    assert result.fractions_removed == fractions.tolist()
    assert result.multipath_connectivity == multipath.tolist()
    assert result.singlepath_connectivity == singlepath.tolist()


def test_fig10c_matches_networkx_on_sciera(sciera_world):
    _assert_identical(sciera_world.network.topology, runs=20, seed=7)


@pytest.mark.parametrize("n_ases", [16, 40, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fig10c_matches_networkx_on_random_topologies(n_ases, seed):
    _assert_identical(random_topology(n_ases, seed=seed), runs=3, seed=seed)
