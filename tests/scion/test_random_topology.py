"""The seeded random topology generator (ROADMAP item 1, first step)."""

import pytest

from repro.scion.network import ScionNetwork
from repro.scion.topology import LinkType, random_topology


def _shape_digest(topo) -> tuple:
    """Structure, not object identity: ASes, core flags, link endpoints."""
    ases = tuple(
        (str(ia), topo.get(ia).is_core) for ia in sorted(topo.ases)
    )
    links = tuple(sorted(
        (str(a_ia), a_if, str(b_ia), b_if)
        for (a_ia, a_if), (b_ia, b_if) in topo.link_attachments.values()
    ))
    return ases, links


class TestRandomTopology:
    def test_deterministic_per_seed(self):
        assert (_shape_digest(random_topology(32, seed=4))
                == _shape_digest(random_topology(32, seed=4)))
        assert (_shape_digest(random_topology(32, seed=4))
                != _shape_digest(random_topology(32, seed=5)))

    def test_size_and_core_count(self):
        topo = random_topology(64, seed=1)
        assert len(topo.ases) == 64
        cores = [ia for ia in topo.ases if topo.get(ia).is_core]
        assert len(cores) == 4  # sqrt(64)//2
        # Full core mesh.
        core_links = [
            name for name, ((a, _), (b, _)) in topo.link_attachments.items()
            if topo.get(a).is_core and topo.get(b).is_core
        ]
        assert len(core_links) == 6

    def test_every_leaf_reaches_every_leaf(self):
        """validate() guarantees structure; this guarantees usable paths."""
        topo = random_topology(24, seed=9)
        network = ScionNetwork(topo, seed=9)
        leaves = sorted(
            (ia for ia in topo.ases if not topo.get(ia).is_core),
            key=str,
        )
        probes = [(leaves[0], leaves[-1]), (leaves[1], leaves[len(leaves) // 2])]
        for src, dst in probes:
            assert network.paths(src, dst), f"no path {src}->{dst}"

    def test_peer_links_present(self):
        topo = random_topology(64, seed=1, peer_fraction=0.2)
        peered = [
            ia for ia in topo.ases
            if any(
                iface.link_type == LinkType.PEER
                for iface in topo.get(ia).interfaces.values()
            )
        ]
        assert peered

    def test_rejects_empty_networks(self):
        from repro.scion.topology import TopologyError

        with pytest.raises(TopologyError):
            random_topology(0)
