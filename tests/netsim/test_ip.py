"""Tests for the BGP-like single-path IP baseline."""

import pytest

from repro.netsim.ip import IpInternet


def triangle():
    """A-B direct (slow), A-C-B indirect but each edge fast."""
    net = IpInternet()
    for node in "ABC":
        net.add_node(node)
    net.add_link("A", "B", latency_s=0.100)
    net.add_link("A", "C", latency_s=0.010)
    net.add_link("C", "B", latency_s=0.010)
    return net


def test_bgp_prefers_fewest_hops_not_lowest_latency():
    net = triangle()
    route = net.route("A", "B")
    # BGP semantics: 1-hop direct path wins although 2-hop is faster.
    assert route.hops == ("A", "B")
    assert route.rtt_s == pytest.approx(0.200)


def test_single_path_per_pair_is_deterministic():
    net = IpInternet()
    for node in "ABCD":
        net.add_node(node)
    # Two equal-hop-count paths A-B-D and A-C-D: tie-break must be stable.
    net.add_link("A", "B", 0.01)
    net.add_link("B", "D", 0.01)
    net.add_link("A", "C", 0.01)
    net.add_link("C", "D", 0.01)
    first = net.route("A", "D")
    for _ in range(5):
        assert net.route("A", "D").hops == first.hops
    assert first.hops == ("A", "B", "D")  # lexicographically smallest


def test_failure_reroutes_to_next_best_path():
    net = triangle()
    net.set_link_state("A", "B", False)
    route = net.route("A", "B")
    assert route.hops == ("A", "C", "B")
    assert route.rtt_s == pytest.approx(0.040)


def test_partition_returns_none():
    net = triangle()
    net.set_link_state("A", "B", False)
    net.set_link_state("A", "C", False)
    assert net.route("A", "B") is None
    assert net.rtt_s("A", "B") is None


def test_repair_restores_original_route():
    net = triangle()
    net.set_link_state("A", "B", False)
    assert net.route("A", "B").hops == ("A", "C", "B")
    net.set_link_state("A", "B", True)
    assert net.route("A", "B").hops == ("A", "B")


def test_self_route_is_trivial():
    net = triangle()
    route = net.route("A", "A")
    assert route.hops == ("A",)
    assert route.rtt_s == 0.0


def test_unknown_node_raises():
    net = triangle()
    with pytest.raises(KeyError):
        net.route("A", "Z")
