"""Shared fixtures: small synthetic SCION topologies used across tests."""

import pytest

from repro.experiments.common import diamond_topology
from repro.sciera.build import ScieraWorld, build_sciera
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork
from repro.scion.topology import GlobalTopology, LinkType


def make_diamond_topology() -> GlobalTopology:
    """Two cores (doubly linked), two leaves, multi-homed leaf A.

        C1 ==== C2        (two parallel core links)
        /  \\   |
       A    '--A(2nd parent link)   B->C2
    """
    return diamond_topology()


def make_peering_topology() -> GlobalTopology:
    """Two cores, two leaves under different cores, with a peer link
    between the leaves' parents (non-core middle ASes).

        C1 ---- C2
        |        |
        M1 ~~~~ M2     (peering)
        |        |
        A        B
    """
    topo = GlobalTopology()
    c1, c2 = IA.parse("71-1"), IA.parse("71-2")
    m1, m2 = IA.parse("71-10"), IA.parse("71-20")
    a, b = IA.parse("71-100"), IA.parse("71-200")
    topo.add_as(c1, is_core=True)
    topo.add_as(c2, is_core=True)
    for ia in (m1, m2, a, b):
        topo.add_as(ia)
    topo.add_link(c1, c2, LinkType.CORE, 0.050, link_name="c1c2")
    topo.add_link(m1, c1, LinkType.PARENT, 0.005, link_name="m1-c1")
    topo.add_link(m2, c2, LinkType.PARENT, 0.005, link_name="m2-c2")
    topo.add_link(m1, m2, LinkType.PEER, 0.002, link_name="m1~m2")
    topo.add_link(a, m1, LinkType.PARENT, 0.001, link_name="a-m1")
    topo.add_link(b, m2, LinkType.PARENT, 0.001, link_name="b-m2")
    return topo


def make_shortcut_topology() -> GlobalTopology:
    """One core, a middle AS with two children: shortcut at the middle.

        C
        |
        M
       / \\
      A   B
    """
    topo = GlobalTopology()
    c, m = IA.parse("71-1"), IA.parse("71-10")
    a, b = IA.parse("71-100"), IA.parse("71-200")
    topo.add_as(c, is_core=True)
    for ia in (m, a, b):
        topo.add_as(ia)
    topo.add_link(m, c, LinkType.PARENT, 0.010, link_name="m-c")
    topo.add_link(a, m, LinkType.PARENT, 0.001, link_name="a-m")
    topo.add_link(b, m, LinkType.PARENT, 0.001, link_name="b-m")
    return topo


@pytest.fixture(scope="session")
def diamond_network() -> ScionNetwork:
    return ScionNetwork(make_diamond_topology(), seed=7)


@pytest.fixture(scope="session")
def peering_network() -> ScionNetwork:
    return ScionNetwork(make_peering_topology(), seed=7)


@pytest.fixture(scope="session")
def shortcut_network() -> ScionNetwork:
    return ScionNetwork(make_shortcut_topology(), seed=7)


@pytest.fixture(scope="session")
def sciera_world() -> ScieraWorld:
    """The SCIERA world (PKI seed 1), built once per session — READ-ONLY.

    Tests that break links, revoke, enrol ASes or touch trust stores build
    a world of their own instead.
    """
    return build_sciera(seed=1)


@pytest.fixture()
def fresh_diamond_network() -> ScionNetwork:
    """A non-shared diamond network for tests that mutate link state."""
    return ScionNetwork(make_diamond_topology(), seed=7)
